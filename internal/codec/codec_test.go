package codec

import (
	"math"
	"slices"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder([]byte("HDR"), 0)
	e.Uvarint(300)
	e.Byte(7)
	e.Fixed64(math.Float64bits(0.25))
	e.String("gram")
	AppendAscending(e, 5, []int32{5, 6, 40})
	AppendAscending(e, 0, []uint64{math.MaxUint64 - 1})
	AppendAscending[uint32](e, 0, nil)
	b := e.Bytes()
	if string(b[:3]) != "HDR" {
		t.Fatalf("prefix lost: %q", b[:3])
	}
	d := NewDecoder(b[3:])
	if v := d.Uvarint("v"); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Byte("b"); v != 7 {
		t.Errorf("Byte = %d", v)
	}
	if v := math.Float64frombits(d.Fixed64("f")); v != 0.25 {
		t.Errorf("Fixed64 = %v", v)
	}
	if v := d.String("s"); v != "gram" {
		t.Errorf("String = %q", v)
	}
	if v := Ascending[int32](d, "ids", 5, 41); !slices.Equal(v, []int32{5, 6, 40}) {
		t.Errorf("Ascending = %v", v)
	}
	if v := Ascending[uint64](d, "keys", 0, math.MaxUint64); !slices.Equal(v, []uint64{math.MaxUint64 - 1}) {
		t.Errorf("Ascending = %v", v)
	}
	if v := Ascending[uint32](d, "empty", 0, 0); v != nil {
		t.Errorf("Ascending = %v", v)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRejects: every input the encoder never writes fails to decode,
// and the first error is the one reported.
func TestRejects(t *testing.T) {
	ascending := func(floor, limit uint64) func(*Decoder) {
		return func(d *Decoder) { Ascending[uint32](d, "ids", floor, limit) }
	}
	for name, c := range map[string]struct {
		in   []byte
		read func(*Decoder)
	}{
		"truncated varint":  {[]byte{0x80}, func(d *Decoder) { d.Uvarint("v") }},
		"padded varint":     {[]byte{0x81, 0x00}, func(d *Decoder) { d.Uvarint("v") }},
		"overlong varint":   {slices.Repeat([]byte{0xff}, 11), func(d *Decoder) { d.Uvarint("v") }},
		"count past input":  {[]byte{3, 'a', 'b'}, func(d *Decoder) { d.String("s") }},
		"short fixed64":     {[]byte{1, 2, 3}, func(d *Decoder) { d.Fixed64("f") }},
		"repeated id":       {[]byte{2, 1, 0}, ascending(0, 10)},
		"id past limit":     {[]byte{2, 1, 9}, ascending(0, 10)},
		"first id at limit": {[]byte{1, 0}, ascending(4, 4)},
		"trailing byte":     {[]byte{1, 0, 0}, func(d *Decoder) { d.Uvarint("v") }},
	} {
		d := NewDecoder(c.in)
		c.read(d)
		d.Uvarint("after") // reads after a failure return zero values
		if err := d.Finish(); err == nil {
			t.Errorf("%s: accepted %x", name, c.in)
		}
	}
}
