package canopy

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"

	"repro/internal/bib"
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
// truncated gob, inconsistent payload.
func TestLoadIndexRejectsGarbage(t *testing.T) {
	if _, err := LoadIndex([]byte("not a postings blob")); err == nil {
		t.Fatal("LoadIndex accepted garbage")
	}
	if _, err := LoadIndex([]byte(indexBlobMagic + "trailing junk")); err == nil {
		t.Fatal("LoadIndex accepted a corrupt gob body")
	}
	ix, err := NewIndex(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ix.Save()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(blob[:len(blob)-4]); err == nil {
		t.Fatal("LoadIndex accepted a truncated blob")
	}
	v1 := append([]byte("CEMP1\n"), blob[len(indexBlobMagic):]...)
	if _, err := LoadIndex(v1); err == nil {
		t.Fatal("LoadIndex accepted a blob of the older CEMP1 format")
	}
}

// TestLoadIndexRejectsOutOfRangeIDs: a well-formed blob whose ids point
// past the records or the gram dictionary fails to load, instead of
// panicking in a later Add.
func TestLoadIndexRejectsOutOfRangeIDs(t *testing.T) {
	d := datagen.MustGenerate(datagen.DBLPLike(0.05, 1))
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
	for name, corrupt := range map[string]func(w *indexWire){
		"gram id":   func(w *indexWire) { w.Grams[0][0] = uint32(len(w.Dict)) },
		"posting":   func(w *indexWire) { w.Postings[0][0] = int32(w.N) },
		"candidate": func(w *indexWire) { w.Cands[0][0].ID = -1 },
		"cover":     func(w *indexWire) { w.Sets[0][0] = int32(w.N) },
	} {
		var w indexWire
		if err := gob.NewDecoder(bytes.NewReader(blob[len(indexBlobMagic):])).Decode(&w); err != nil {
			t.Fatal(err)
		}
		corrupt(&w)
		var buf bytes.Buffer
		buf.WriteString(indexBlobMagic)
		if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadIndex(buf.Bytes()); err == nil {
			t.Errorf("LoadIndex accepted a blob with an out-of-range %s", name)
		}
	}
}
