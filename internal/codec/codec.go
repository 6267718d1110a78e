// Package codec is the varint encoder and decoder shared by the repo's
// binary formats: the wire messages of internal/wire and the postings
// blob of internal/canopy. Integers are unsigned varints; the decoder
// accepts only minimal encodings, so every input it accepts re-encodes
// to the same bytes.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoder appends fields to a byte slice.
type Encoder struct {
	buf []byte
}

// NewEncoder starts an encoding after prefix (a magic and header, say);
// capacity is a size hint for the whole output.
func NewEncoder(prefix []byte, capacity int) *Encoder {
	return &Encoder{buf: append(make([]byte, 0, max(capacity, len(prefix))), prefix...)}
}

// Bytes returns the encoding so far.
func (e *Encoder) Bytes() []byte { return e.buf }

func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Fixed64 appends v as 8 little-endian bytes.
func (e *Encoder) Fixed64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// String appends s as its length and its bytes.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// ID is an element type of an ascending id list.
type ID interface{ ~int32 | ~uint32 | ~uint64 }

// AppendAscending appends a strictly ascending list of ids, each at
// least floor: its length, the first id less floor, then the gaps
// between successive ids (each ≥ 1). Neighbouring ids share their high
// bits, so the gaps are small.
func AppendAscending[T ID](e *Encoder, floor uint64, ids []T) {
	e.Uvarint(uint64(len(ids)))
	prev := floor
	for _, id := range ids {
		e.Uvarint(uint64(id) - prev)
		prev = uint64(id)
	}
}

// Decoder consumes an encoding, keeping the first error instead of
// forcing an error check after every read: after it, every read returns
// a zero value. Each read names the field it reads for the error.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder decodes b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

var errTruncated = errors.New("truncated")

// Fail records err against field unless an error is already recorded.
func (d *Decoder) Fail(field string, err error) {
	if d.err == nil {
		d.err = fmt.Errorf("%s: %w", field, err)
	}
	d.buf = nil
}

// Err returns the first error.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first error, or an error if input is left over.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) > 0 {
		return fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	return d.err
}

// Uvarint reads a minimally encoded unsigned varint.
func (d *Decoder) Uvarint(field string) uint64 {
	v, n := binary.Uvarint(d.buf)
	switch {
	case n == 0:
		d.Fail(field, errTruncated)
		return 0
	case n < 0 || (n > 1 && d.buf[n-1] == 0):
		d.Fail(field, errors.New("malformed varint"))
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Count reads a length, bounded by the remaining bytes: every counted
// element takes at least one, so a corrupt count cannot force a huge
// allocation.
func (d *Decoder) Count(field string) int {
	v := d.Uvarint(field)
	if v > uint64(len(d.buf)) {
		d.Fail(field, fmt.Errorf("count %d exceeds the %d remaining bytes", v, len(d.buf)))
		return 0
	}
	return int(v)
}

// next reads the next n bytes.
func (d *Decoder) next(field string, n int) []byte {
	if n > len(d.buf) {
		d.Fail(field, errTruncated)
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *Decoder) Byte(field string) byte {
	if b := d.next(field, 1); len(b) == 1 {
		return b[0]
	}
	return 0
}

// Fixed64 reads 8 little-endian bytes.
func (d *Decoder) Fixed64(field string) uint64 {
	if b := d.next(field, 8); len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// String reads a length-prefixed string.
func (d *Decoder) String(field string) string {
	return string(d.next(field, d.Count(field)))
}

// Ascending reads a list written by AppendAscending whose ids lie in
// [floor, limit), floor ≤ limit. Ids out of range or not strictly
// ascending fail the decoding.
func Ascending[T ID](d *Decoder, field string, floor, limit uint64) []T {
	k := d.Count(field)
	if k == 0 {
		return nil
	}
	out := make([]T, k)
	prev := floor
	for i := range out {
		gap := d.Uvarint(field)
		switch {
		case d.err != nil:
			return nil
		case i > 0 && gap == 0:
			d.Fail(field, errors.New("ids not strictly ascending"))
			return nil
		case gap >= limit-prev:
			d.Fail(field, fmt.Errorf("id out of range [%d, %d)", floor, limit))
			return nil
		}
		prev += gap
		out[i] = T(prev)
	}
	return out
}
