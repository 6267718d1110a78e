package canopy

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/datagen"
)

// TestIndexSaveLoadRoundTrip pins the postings-blob contract: a loaded
// index is fully equivalent to the saved one — identical cover now, and
// identical covers and deltas for every further Add.
func TestIndexSaveLoadRoundTrip(t *testing.T) {
	d := datagen.MustGenerate(datagen.HEPTHLike(0.25, 42))
	records := bib.ToRecords(d)
	half := len(records) / 2

	ix, err := NewIndex(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	firstHalf, err := bib.DatasetFromRecords("rt", records[:half])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Add(ctx, firstHalf); err != nil {
		t.Fatal(err)
	}

	blob, err := ix.Save()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() || loaded.Config() != ix.Config() {
		t.Fatalf("loaded index: %d records / %+v, want %d / %+v",
			loaded.Len(), loaded.Config(), ix.Len(), ix.Config())
	}
	if !coversEqual(loaded.Cover(), ix.Cover()) {
		t.Fatal("loaded cover differs from the saved one")
	}

	// Continue both with the remaining records: covers AND deltas agree.
	union, err := bib.DatasetFromRecords("rt", records)
	if err != nil {
		t.Fatal(err)
	}
	origCover, origDelta, err := ix.Add(ctx, union)
	if err != nil {
		t.Fatal(err)
	}
	loadCover, loadDelta, err := loaded.Add(ctx, union)
	if err != nil {
		t.Fatal(err)
	}
	if !coversEqual(origCover, loadCover) {
		t.Fatal("covers diverge after continuing a loaded index")
	}
	if origDelta.Additive != loadDelta.Additive ||
		len(origDelta.Changed) != len(loadDelta.Changed) ||
		len(origDelta.NewEntities) != len(loadDelta.NewEntities) {
		t.Fatalf("deltas diverge: %+v vs %+v", origDelta, loadDelta)
	}
}

// TestLoadIndexRejectsGarbage pins the failure modes: wrong magic,
// corrupt body, truncation, older versions.
func TestLoadIndexRejectsGarbage(t *testing.T) {
	if _, err := LoadIndex([]byte("not a postings blob")); err == nil {
		t.Fatal("LoadIndex accepted garbage")
	}
	if _, err := LoadIndex([]byte(indexBlobMagic + "trailing junk")); err == nil {
		t.Fatal("LoadIndex accepted a corrupt body")
	}
	blob, err := savedIndex(t, func(*Index) {}).Save()
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(indexBlobMagic); cut < len(blob); cut += max(1, len(blob)/97) {
		if _, err := LoadIndex(blob[:cut]); err == nil {
			t.Fatalf("LoadIndex accepted a blob truncated to %d of %d bytes", cut, len(blob))
		}
	}
	for _, old := range []string{"CEMP1\n", "CEMP2\n"} {
		if _, err := LoadIndex(append([]byte(old), blob[len(indexBlobMagic):]...)); err == nil {
			t.Fatalf("LoadIndex accepted a blob of the older %q format", old[:5])
		}
	}
}

// savedIndex builds a small DBLP-like index, applies corrupt to its
// state, and returns it for Save, which writes whatever the state holds.
func savedIndex(t *testing.T, corrupt func(ix *Index)) *Index {
	t.Helper()
	d := datagen.MustGenerate(datagen.DBLPLike(0.05, 1))
	ix, err := NewIndex(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Add(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	corrupt(ix)
	return ix
}

// TestLoadIndexRejectsOutOfRangeIDs: a blob whose ids point past the
// records or the gram dictionary, or run out of order, fails to load
// instead of panicking in a later Add. Each case corrupts an index's
// state and saves it, so the bad ids arrive in the blob's own encoding.
func TestLoadIndexRejectsOutOfRangeIDs(t *testing.T) {
	for name, corrupt := range map[string]func(ix *Index){
		"gram id": func(ix *Index) { ix.grams[0] = append(ix.grams[0], uint32(len(ix.dict))) },
		// Postings are rebuilt from the records' gram ids, so a posting
		// past the records can only come from a gram list beyond the
		// declared record count.
		"posting":   func(ix *Index) { ix.grams = append(ix.grams, []uint32{0}) },
		"candidate": func(ix *Index) { ix.cands[0] = append(ix.cands[0], scored{ID: int32(ix.n)}) },
		"cover": func(ix *Index) {
			ix.cover.Sets[0] = append(slices.Clone(ix.cover.Sets[0]), int32(ix.n))
		},
		"cover entities": func(ix *Index) { ix.cover = core.NewCover(ix.n-1, nil) },
		"non-ascending grams": func(ix *Index) {
			ix.grams[0] = append(ix.grams[0], ix.grams[0][len(ix.grams[0])-1])
		},
		"descending candidates": func(ix *Index) {
			ix.cands[0] = append(ix.cands[0], scored{ID: ix.cands[0][len(ix.cands[0])-1].ID - 1})
		},
		"non-ascending cover": func(ix *Index) {
			set := ix.cover.Sets[0]
			ix.cover.Sets[0] = append(slices.Clone(set), set[len(set)-1])
		},
	} {
		blob, err := savedIndex(t, corrupt).Save()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndex(blob); err == nil {
			t.Errorf("LoadIndex accepted a blob with a bad %s", name)
		}
	}
}

// TestLoadIndexRejectsMalformedBytes: byte-level damage the encoder
// never writes — a trailing byte, a padded varint, a gram listed twice,
// a flag byte other than 0 or 1 — fails to load.
func TestLoadIndexRejectsMalformedBytes(t *testing.T) {
	d, err := bib.DatasetFromRecords("t", []bib.Record{
		{Name: "abc", Group: 0, Gold: -1},
		{Name: "abd", Group: 0, Gold: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Add(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	blob, err := ix.Save()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(blob); err != nil {
		t.Fatal(err)
	}
	// The record count follows the magic, the two float thresholds and
	// the three one-byte config varints and the FullBoundary flag.
	at := len(indexBlobMagic) + 16 + 3
	padded := slices.Concat(blob[:at+1], []byte{blob[at+1] | 0x80, 0}, blob[at+2:])
	boundary := slices.Clone(blob)
	boundary[at] = 2
	for name, bad := range map[string][]byte{
		"trailing byte":  append(slices.Clone(blob), 0),
		"padded varint":  padded,
		"duplicate gram": bytes.Replace(blob, []byte("\x02bc"), []byte("\x02ab"), 1),
		"flag byte":      boundary,
	} {
		if bytes.Equal(bad, blob) {
			t.Fatalf("%s: corruption left the blob unchanged", name)
		}
		if _, err := LoadIndex(bad); err == nil {
			t.Errorf("LoadIndex accepted a blob with a %s", name)
		}
	}
}

// FuzzLoadIndex: arbitrary bytes either fail to load or load into an
// index that saves back to exactly those bytes; nothing panics.
func FuzzLoadIndex(f *testing.F) {
	f.Add([]byte(indexBlobMagic))
	f.Add([]byte("CEMP2\n\x00"))
	for _, names := range [][]string{{"a smith"}, {"abc", "abd", "x"}, {"j doe", "j d", "jane doe", "john doe"}} {
		var recs []bib.Record
		for i, n := range names {
			recs = append(recs, bib.Record{Name: n, Group: int32(i % 2), Gold: -1})
		}
		d, err := bib.DatasetFromRecords("fuzz", recs)
		if err != nil {
			f.Fatal(err)
		}
		ix, err := NewIndex(DefaultConfig())
		if err != nil {
			f.Fatal(err)
		}
		for _, add := range []bool{false, true} {
			if add {
				if _, _, err := ix.Add(context.Background(), d); err != nil {
					f.Fatal(err)
				}
			}
			blob, err := ix.Save()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := LoadIndex(data)
		if err != nil {
			return
		}
		again, err := ix.Save()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("blob %x loads, but saves back as %x", data, again)
		}
	})
}
