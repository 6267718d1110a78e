package wire

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/codec"
)

// magic opens every binary message. JSON messages open with '{', so the
// two codecs are sniffable from the first byte.
var magic = [4]byte{'C', 'E', 'M', 'W'}

// isBinary reports whether b opens with the binary magic.
func isBinary(b []byte) bool {
	return len(b) >= len(magic) && string(b[:len(magic)]) == string(magic[:])
}

// newEncoder starts a binary message: magic, version, type tag, then
// varint-encoded payload fields.
func newEncoder(msgType byte) *codec.Encoder {
	return codec.NewEncoder(append(magic[:], Version, msgType), 256)
}

// appendKeyGroups encodes a list of key groups, order- and
// grouping-preserving (groups are not sorted; raw keys).
func appendKeyGroups(e *codec.Encoder, groups [][]uint64) {
	e.Uvarint(uint64(len(groups)))
	for _, g := range groups {
		e.Uvarint(uint64(len(g)))
		for _, k := range g {
			e.Uvarint(k)
		}
	}
}

// newDecoder checks a binary message's header and returns a decoder of
// its payload.
func newDecoder(b []byte, wantType byte) (*codec.Decoder, error) {
	if !isBinary(b) {
		return nil, fmt.Errorf("wire: not a binary message")
	}
	if len(b) < len(magic)+2 {
		return nil, fmt.Errorf("wire: truncated header")
	}
	if v := b[len(magic)]; v != Version {
		return nil, fmt.Errorf("wire: unsupported version %d (want %d)", v, Version)
	}
	if tt := b[len(magic)+1]; tt != wantType {
		return nil, fmt.Errorf("wire: message type %d, want %d", tt, wantType)
	}
	return codec.NewDecoder(b[len(magic)+2:]), nil
}

// sortedKeys decodes a strictly increasing key batch written with
// codec.AppendAscending from floor 0.
func sortedKeys(d *codec.Decoder, field string) []uint64 {
	return codec.Ascending[uint64](d, field, 0, math.MaxUint64)
}

func keyGroups(d *codec.Decoder, field string) [][]uint64 {
	n := d.Count(field)
	if d.Err() != nil || n == 0 {
		return nil
	}
	groups := make([][]uint64, n)
	for i := range groups {
		m := d.Count(field)
		if d.Err() != nil {
			return nil
		}
		g := make([]uint64, m)
		for j := range g {
			g[j] = d.Uvarint(field)
		}
		groups[i] = g
	}
	return groups
}

// finish verifies the message was consumed exactly.
func finish(d *codec.Decoder) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	return nil
}

// jsonEnvelope wraps every JSON message with the format version and the
// message type, mirroring the binary header.
type jsonEnvelope struct {
	Version int             `json:"cemw"`
	Type    int             `json:"type"`
	Msg     json.RawMessage `json:"msg"`
}

func marshalJSON(msgType byte, v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(jsonEnvelope{Version: Version, Type: int(msgType), Msg: raw})
}

func unmarshalJSON(b []byte, wantType byte, v any) error {
	var env jsonEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	if env.Version != Version {
		return fmt.Errorf("wire: unsupported version %d (want %d)", env.Version, Version)
	}
	if env.Type != int(wantType) {
		return fmt.Errorf("wire: message type %d, want %d", env.Type, wantType)
	}
	if err := json.Unmarshal(env.Msg, v); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	return nil
}
