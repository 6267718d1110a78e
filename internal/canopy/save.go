package canopy

import (
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/core"
)

// Index serialization — the "postings blob" of the storage layer.
//
// A serving process that keeps its state in a disk store saves the
// delta index alongside the run snapshot; on restart, LoadIndex
// restores the full blocking state — the gram dictionary, every
// record's interned gram ids, the cached candidate lists, and the
// previous cover — so ingestion resumes incrementally without
// re-scoring the corpus (the expensive half of blocking). The blob holds
// only what cannot be derived: the postings are rebuilt on load from
// the records' gram ids, and the candidate lists are stored once per
// pair (each record's candidates at or above its own id) without their
// similarities, which are recomputed from the gram sets exactly as the
// scorer computed them.
//
// The format, after the magic line, is a sequence of minimally encoded
// unsigned varints, apart from the two float thresholds and the two
// flag bytes (0 or 1):
//
//	config    Loose and Tight as 8-byte little-endian IEEE-754 bits,
//	          then Q, MaxAligned, MaxNeighborhood, the FullBoundary byte
//	records   n
//	dict      count, then each gram as length + bytes, in gram-id order
//	grams     per record: an ascending id list of its grams
//	cands     per record i: an ascending id list of its candidates ≥ i
//	cover     byte 0, or byte 1 + entities + set count + one ascending
//	          id list per set
//
// An ascending id list is its length, the first id less the list's
// floor (0, or i for candidates), then the gaps between successive ids,
// each at least 1: internal/codec's delta coding, which internal/wire's
// key batches use too.
// LoadIndex rejects ids out of range or out of order and trailing
// bytes, so every blob it accepts re-encodes to the same bytes. The
// blob is a cache: a failed load — including a blob of an older version
// — is recoverable by replaying records through a fresh index.

const indexBlobMagic = "CEMP3\n"

// Save serializes the index's full blocking state.
func (ix *Index) Save() ([]byte, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	e := codec.NewEncoder([]byte(indexBlobMagic), 64+8*ix.n)
	e.Fixed64(math.Float64bits(ix.cfg.Loose))
	e.Fixed64(math.Float64bits(ix.cfg.Tight))
	e.Uvarint(uint64(ix.cfg.Q))
	e.Uvarint(uint64(ix.cfg.MaxAligned))
	e.Uvarint(uint64(ix.cfg.MaxNeighborhood))
	e.Byte(flagByte(ix.cfg.FullBoundary))
	e.Uvarint(uint64(ix.n))

	dict := make([]string, len(ix.dict))
	for gram, gid := range ix.dict {
		dict[gid] = gram
	}
	e.Uvarint(uint64(len(dict)))
	for _, gram := range dict {
		e.String(gram)
	}
	for _, g := range ix.grams {
		codec.AppendAscending(e, 0, g)
	}
	var upper []int32
	for i, cs := range ix.cands {
		upper = upper[:0]
		for _, c := range cs {
			if int(c.ID) >= i {
				upper = append(upper, c.ID)
			}
		}
		codec.AppendAscending(e, uint64(i), upper)
	}
	e.Byte(flagByte(ix.cover != nil))
	if ix.cover != nil {
		e.Uvarint(uint64(ix.cover.NumEntities))
		e.Uvarint(uint64(len(ix.cover.Sets)))
		for _, set := range ix.cover.Sets {
			codec.AppendAscending(e, 0, set)
		}
	}
	return e.Bytes(), nil
}

func flagByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// LoadIndex restores an index saved with Save. The restored index is
// fully equivalent to the one that was saved: further Adds produce
// byte-identical covers and deltas.
func LoadIndex(data []byte) (*Index, error) {
	if len(data) < len(indexBlobMagic) || string(data[:len(indexBlobMagic)]) != indexBlobMagic {
		return nil, fmt.Errorf("canopy: index blob lacks the %q header", indexBlobMagic[:len(indexBlobMagic)-1])
	}
	ix, err := decodeIndex(codec.NewDecoder(data[len(indexBlobMagic):]))
	if err != nil {
		return nil, fmt.Errorf("canopy: index blob: %w", err)
	}
	return ix, nil
}

func decodeIndex(d *codec.Decoder) (*Index, error) {
	cfg := Config{
		Loose:           math.Float64frombits(d.Fixed64("loose")),
		Tight:           math.Float64frombits(d.Fixed64("tight")),
		Q:               readInt(d, "q"),
		MaxAligned:      readInt(d, "max aligned"),
		MaxNeighborhood: readInt(d, "max neighborhood"),
		FullBoundary:    readFlag(d, "full boundary"),
	}
	n := d.Count("records")
	if err := d.Err(); err != nil {
		return nil, err
	}
	ix, err := NewIndex(cfg)
	if err != nil {
		return nil, err
	}
	grams := d.Count("dict")
	for gid := 0; gid < grams && d.Err() == nil; gid++ {
		gram := d.String("dict")
		if _, dup := ix.dict[gram]; dup && d.Err() == nil {
			return nil, fmt.Errorf("gram %q listed twice", gram)
		}
		ix.dict[gram] = uint32(gid)
	}
	ix.postings = make([][]int32, grams)
	ix.n = n
	ix.grams = make([][]uint32, n)
	for id := range ix.grams {
		ix.grams[id] = codec.Ascending[uint32](d, "grams", 0, uint64(grams))
		for _, gid := range ix.grams[id] {
			ix.postings[gid] = append(ix.postings[gid], int32(id))
		}
	}
	ix.cands = make([][]scored, n)
	for i := range ix.cands {
		for _, j := range codec.Ascending[int32](d, "candidates", uint64(i), uint64(n)) {
			s := jaccardOf(ix.grams[i], ix.grams[j])
			ix.cands[i] = append(ix.cands[i], scored{ID: j, Sim: s})
			if int(j) != i {
				ix.cands[j] = append(ix.cands[j], scored{ID: core.EntityID(i), Sim: s})
			}
		}
	}
	if readFlag(d, "cover") {
		if entities := readInt(d, "cover"); entities != n && d.Err() == nil {
			return nil, fmt.Errorf("cover spans %d entities over %d records", entities, n)
		}
		sets := make([][]core.EntityID, d.Count("cover"))
		for i := range sets {
			sets[i] = codec.Ascending[int32](d, "cover", 0, uint64(n))
		}
		if d.Err() == nil {
			ix.cover = core.NewCover(n, sets)
			ix.prevByID = ix.cover.Sets
			for _, set := range ix.cover.Sets {
				ix.prevSets[setKey(set)] = true
			}
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return ix, nil
}

// readInt reads a varint that must fit an int32.
func readInt(d *codec.Decoder, field string) int {
	v := d.Uvarint(field)
	if v > math.MaxInt32 {
		d.Fail(field, fmt.Errorf("value %d out of range", v))
		return 0
	}
	return int(v)
}

// readFlag reads a byte that must be 0 or 1.
func readFlag(d *codec.Decoder, field string) bool {
	b := d.Byte(field)
	if b > 1 {
		d.Fail(field, fmt.Errorf("flag byte %d", b))
	}
	return b == 1
}

// jaccardOf is the q-gram Jaccard of two ascending gram-id sets.
func jaccardOf(a, b []uint32) float64 {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return gramJaccard(inter, len(a), len(b))
}
