package canopy

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/core"
)

// Index serialization — the "postings blob" of the storage layer.
//
// A serving process that keeps its state in a disk store saves the
// delta index alongside the run snapshot; on restart, LoadIndex
// restores the full blocking state — the gram dictionary, every
// record's interned gram ids, the postings by gram id, the cached
// candidate lists, and the previous cover — so ingestion resumes
// incrementally without re-scoring the corpus (the expensive half of
// blocking). The format is gob over an exported mirror struct of slices
// only, so equal indexes encode to equal bytes, versioned by a leading
// magic string; it is a cache, so a failed load — including a blob of
// an older version — is recoverable by replaying records through a
// fresh index.

const indexBlobMagic = "CEMP2\n"

// indexWire mirrors Index with exported fields for gob.
type indexWire struct {
	Cfg      Config
	N        int
	Dict     []string // gram id -> gram
	Grams    [][]uint32
	Postings [][]int32
	Cands    [][]scored
	Sets     [][]core.EntityID // the last cover's sets; nil before the first Add
	Entities int               // the last cover's entity universe
	HasCover bool
}

// Save serializes the index's full blocking state.
func (ix *Index) Save() ([]byte, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	w := indexWire{
		Cfg:      ix.cfg,
		N:        ix.n,
		Dict:     make([]string, len(ix.dict)),
		Grams:    ix.grams,
		Postings: ix.postings,
		Cands:    ix.cands,
	}
	for gram, gid := range ix.dict {
		w.Dict[gid] = gram
	}
	if ix.cover != nil {
		w.HasCover = true
		w.Sets = ix.cover.Sets
		w.Entities = ix.cover.NumEntities
	}
	var buf bytes.Buffer
	buf.WriteString(indexBlobMagic)
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("canopy: encoding index: %w", err)
	}
	return buf.Bytes(), nil
}

// LoadIndex restores an index saved with Save. The restored index is
// fully equivalent to the one that was saved: further Adds produce
// byte-identical covers and deltas.
func LoadIndex(data []byte) (*Index, error) {
	if len(data) < len(indexBlobMagic) || string(data[:len(indexBlobMagic)]) != indexBlobMagic {
		return nil, fmt.Errorf("canopy: index blob lacks the %q header", indexBlobMagic[:len(indexBlobMagic)-1])
	}
	var w indexWire
	if err := gob.NewDecoder(bytes.NewReader(data[len(indexBlobMagic):])).Decode(&w); err != nil {
		return nil, fmt.Errorf("canopy: decoding index: %w", err)
	}
	ix, err := NewIndex(w.Cfg)
	if err != nil {
		return nil, fmt.Errorf("canopy: index blob config: %w", err)
	}
	if err := w.check(); err != nil {
		return nil, fmt.Errorf("canopy: index blob inconsistent: %w", err)
	}
	ix.n = w.N
	ix.grams = w.Grams
	ix.postings = w.Postings
	for gid, gram := range w.Dict {
		ix.dict[gram] = uint32(gid)
	}
	ix.cands = w.Cands
	if w.HasCover {
		ix.cover = core.NewCover(w.Entities, w.Sets)
		ix.prevByID = ix.cover.Sets
		for _, set := range ix.cover.Sets {
			ix.prevSets[setKey(set)] = true
		}
	}
	return ix, nil
}

// check verifies that every id the blob holds is in range, so a corrupt
// blob fails to load instead of indexing out of bounds later.
func (w *indexWire) check() error {
	if w.N != len(w.Grams) || w.N != len(w.Cands) {
		return fmt.Errorf("%d records, %d gram sets, %d candidate lists", w.N, len(w.Grams), len(w.Cands))
	}
	if len(w.Dict) != len(w.Postings) {
		return fmt.Errorf("%d grams, %d posting lists", len(w.Dict), len(w.Postings))
	}
	if w.HasCover && w.Entities != w.N {
		return fmt.Errorf("cover spans %d entities over %d records", w.Entities, w.N)
	}
	for _, g := range w.Grams {
		for _, gid := range g {
			if int(gid) >= len(w.Dict) {
				return fmt.Errorf("gram id %d of %d", gid, len(w.Dict))
			}
		}
	}
	for _, p := range w.Postings {
		for _, id := range p {
			if id < 0 || int(id) >= w.N {
				return fmt.Errorf("posting %d of %d records", id, w.N)
			}
		}
	}
	for _, cs := range w.Cands {
		for _, c := range cs {
			if c.ID < 0 || int(c.ID) >= w.N {
				return fmt.Errorf("candidate %d of %d records", c.ID, w.N)
			}
		}
	}
	for _, set := range w.Sets {
		for _, e := range set {
			if e < 0 || int(e) >= w.N {
				return fmt.Errorf("cover member %d of %d records", e, w.N)
			}
		}
	}
	return nil
}
