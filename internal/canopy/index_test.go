package canopy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/datagen"
)

// splitBatches cuts records into 1..maxBatches non-empty batches at
// rng-chosen boundaries, preserving order.
func splitBatches(rng *rand.Rand, recs []bib.Record, maxBatches int) [][]bib.Record {
	n := len(recs)
	k := 1 + rng.Intn(maxBatches)
	if k > n {
		k = n
	}
	cuts := map[int]bool{0: true}
	for len(cuts) < k {
		cuts[rng.Intn(n-1)+1] = true
	}
	var at []int
	for c := range cuts {
		at = append(at, c)
	}
	// map iteration order is random; sort boundaries ascending.
	for i := range at {
		for j := i + 1; j < len(at); j++ {
			if at[j] < at[i] {
				at[i], at[j] = at[j], at[i]
			}
		}
	}
	var out [][]bib.Record
	for i, lo := range at {
		hi := n
		if i+1 < len(at) {
			hi = at[i+1]
		}
		out = append(out, recs[lo:hi])
	}
	return out
}

// coversEqual compares two covers set-by-set (order and content).
func coversEqual(a, b *core.Cover) bool {
	return a.NumEntities == b.NumEntities && reflect.DeepEqual(a.Sets, b.Sets)
}

// TestIndexAddMatchesBuildCover is the delta-ingestion blocking property:
// for random arrival sequences (shuffled record order, random batch
// boundaries), the cover after every Index.Add is identical to the
// from-scratch reference over the records ingested so far — coverOld,
// built on the verbatim old canopy algorithm and the uncached aligned
// expansion rather than on the Index that BuildCover itself now runs.
// Besides up to five random batches, every corpus also arrives in
// 16-record batches, the commit size of a serving stream: many small
// Adds are where the reused aligned expansions must notice a canopy
// member gaining a coauthor.
func TestIndexAddMatchesBuildCover(t *testing.T) {
	for _, corpus := range differentialCorpora(t) {
		for seed := int64(0); seed < 5; seed++ {
			name := fmt.Sprintf("%s-seed%d", corpus.name, seed)
			if seed == 4 {
				name = corpus.name + "-batch16"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				recs := append([]bib.Record(nil), corpus.records...)
				rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
				var batches [][]bib.Record
				if seed == 4 {
					batches = fixedBatches(recs, 16)
				} else {
					batches = splitBatches(rng, recs, 5)
				}

				ix, err := NewIndex(DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				var ingested []bib.Record
				for bi, batch := range batches {
					ingested = append(ingested, batch...)
					union, err := bib.DatasetFromRecords(corpus.name, ingested)
					if err != nil {
						t.Fatal(err)
					}
					got, delta, err := ix.Add(context.Background(), union)
					if err != nil {
						t.Fatal(err)
					}
					want := coverOld(union, DefaultConfig())
					if !coversEqual(got, want) {
						t.Fatalf("batch %d: incremental cover differs from the scratch reference over %d records",
							bi, len(ingested))
					}
					if len(delta.NewEntities) != len(batch) {
						t.Fatalf("batch %d: delta reports %d new entities, want %d",
							bi, len(delta.NewEntities), len(batch))
					}
					// Every changed id must be in range; unchanged sets must
					// really have an identical predecessor (checked on the
					// next Add via prevSets, here just bounds).
					for _, id := range delta.Changed {
						if id < 0 || int(id) >= got.Len() {
							t.Fatalf("batch %d: changed id %d out of range [0,%d)", bi, id, got.Len())
						}
					}
				}
				if ix.Len() != len(corpus.records) {
					t.Fatalf("index ingested %d records, want %d", ix.Len(), len(corpus.records))
				}
			})
		}
	}
}

// differentialCorpus is one record stream of the delta-ingestion tests.
type differentialCorpus struct {
	name    string
	records []bib.Record
}

// differentialCorpora returns the HEPTH-, DBLP- and People-like corpora
// as record streams.
func differentialCorpora(t *testing.T) []differentialCorpus {
	t.Helper()
	var out []differentialCorpus
	for _, preset := range []datagen.Config{
		datagen.HEPTHLike(0.25, 42),
		datagen.DBLPLike(0.25, 42),
	} {
		out = append(out, differentialCorpus{preset.Name, bib.ToRecords(datagen.MustGenerate(preset))})
	}
	people := datagen.PeopleLike(0.25, 42)
	return append(out, differentialCorpus{"people-like", datagen.MustGeneratePeople(people)})
}

// fixedBatches cuts records into consecutive batches of size k (the last
// one possibly shorter).
func fixedBatches(recs []bib.Record, k int) [][]bib.Record {
	var out [][]bib.Record
	for lo := 0; lo < len(recs); lo += k {
		out = append(out, recs[lo:min(lo+k, len(recs))])
	}
	return out
}

// TestIndexEmitMatchesOldAlgorithm extends the oldcmp pinning to the
// delta index: after any arrival sequence, the canopies the index emits
// from its cached candidate lists must equal the verbatim pre-refactor
// serial algorithm on the union names.
func TestIndexEmitMatchesOldAlgorithm(t *testing.T) {
	for _, preset := range []datagen.Config{
		datagen.HEPTHLike(0.25, 42),
		datagen.DBLPLike(0.25, 42),
	} {
		d := datagen.MustGenerate(preset)
		records := bib.ToRecords(d)
		rng := rand.New(rand.NewSource(7))
		batches := splitBatches(rng, records, 4)

		ix, err := NewIndex(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var ingested []bib.Record
		for _, batch := range batches {
			ingested = append(ingested, batch...)
			union, err := bib.DatasetFromRecords(preset.Name, ingested)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ix.Add(context.Background(), union); err != nil {
				t.Fatal(err)
			}
			names := make([]string, len(ingested))
			for i := range ingested {
				names[i] = ingested[i].Name
			}
			if got, want := ix.emit(), canopiesOld(names, DefaultConfig()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: index canopies after %d records differ from the old serial algorithm",
					preset.Name, len(ingested))
			}
		}
	}
}

// TestIndexAddRejectsShrunkDataset pins the append-only contract.
func TestIndexAddRejectsShrunkDataset(t *testing.T) {
	recs := []bib.Record{
		{Name: "a smith", Group: 0, Gold: 0},
		{Name: "b jones", Group: 0, Gold: 1},
	}
	full, err := bib.DatasetFromRecords("t", recs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Add(context.Background(), full); err != nil {
		t.Fatal(err)
	}
	short, err := bib.DatasetFromRecords("t", recs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.Add(context.Background(), short); err == nil {
		t.Fatal("Add accepted a dataset with fewer records than already ingested")
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// (n+1)-th call on: it cancels an Add part-way through scoring.
type cancelAfter struct {
	context.Context
	calls, n int
}

func (c *cancelAfter) Err() error {
	if c.calls++; c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// TestIndexAddResumesAfterCancel: an Add canceled part-way through
// scoring keeps the records it scored, and the next Add finishes them
// into the cover the reference builds, reporting every record it covers
// for the first time as new.
func TestIndexAddResumesAfterCancel(t *testing.T) {
	d := datagen.MustGenerate(datagen.DBLPLike(0.1, 3))
	ix, err := NewIndex(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfter{Context: context.Background(), n: d.NumRefs() / 2}
	if _, _, err := ix.Add(ctx, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Add: err = %v, want context.Canceled", err)
	}
	if n := ix.Len(); n == 0 || n >= d.NumRefs() {
		t.Fatalf("canceled Add scored %d of %d records, want part of them", n, d.NumRefs())
	}
	got, delta, err := ix.Add(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if !coversEqual(got, coverOld(d, DefaultConfig())) {
		t.Fatal("cover after a resumed Add differs from the reference")
	}
	if len(delta.NewEntities) != d.NumRefs() {
		t.Fatalf("resumed Add reports %d new entities, want %d", len(delta.NewEntities), d.NumRefs())
	}
}

// TestIndexAddCanceledAfterExpansion: an Add canceled after its aligned
// expansion ran leaves the index at its previous cover, and the next Add
// — over more records, so some reused expansions must be invalidated —
// still reaches the reference cover.
func TestIndexAddCanceledAfterExpansion(t *testing.T) {
	records := datagen.MustGeneratePeople(datagen.PeopleLike(0.25, 42))
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
	dataset := func(n int) *bib.Dataset {
		d, err := bib.DatasetFromRecords("people-like", records[:n])
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ix, err := NewIndex(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n0, n1 := len(records)/2, len(records)/2+16
	before, _, err := ix.Add(context.Background(), dataset(n0))
	if err != nil {
		t.Fatal(err)
	}
	// One Err call per scored record, one after emission, one after
	// totality patching; the next one follows the aligned expansion.
	ctx := &cancelAfter{Context: context.Background(), n: (n1 - n0) + 2}
	if _, _, err := ix.Add(ctx, dataset(n1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Add: err = %v, want context.Canceled", err)
	}
	if ctx.calls != ctx.n+1 {
		t.Fatalf("Add checked its context %d times, want the cancellation at check %d (after expansion)", ctx.calls, ctx.n+1)
	}
	if ix.Cover() != before {
		t.Fatal("a canceled Add replaced the cover")
	}
	for _, n := range []int{n1 + 16, len(records)} {
		d := dataset(n)
		got, _, err := ix.Add(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		if !coversEqual(got, coverOld(d, DefaultConfig())) {
			t.Fatalf("cover over %d records after a canceled Add differs from the reference", n)
		}
	}
}

// TestLengthRangeExact: the length filter keeps exactly the gram-set
// sizes whose best-case Jaccard, computed as the score computes it,
// reaches the threshold.
func TestLengthRangeExact(t *testing.T) {
	for _, loose := range []float64{0.42, 0.5, 0.4, 1.0 / 3, 0.7, 1, 0.01} {
		for la := 1; la <= 64; la++ {
			lo, hi := lengthRange(la, loose)
			for lb := 1; lb <= 8192; lb++ {
				best := float64(min(la, lb)) / float64(max(la, lb))
				if in := lo <= lb && lb <= hi; in != (best >= loose) {
					t.Fatalf("loose %v, |a| %d: range [%d,%d] wrongly %v for |b| %d (best Jaccard %v)",
						loose, la, lo, hi, map[bool]string{true: "keeps", false: "drops"}[in], lb, best)
				}
			}
		}
	}
}

// TestNewIndexValidates pins configuration validation at construction.
func TestNewIndexValidates(t *testing.T) {
	if _, err := NewIndex(Config{Loose: -1, Tight: 0.9, Q: 2}); err == nil {
		t.Fatal("NewIndex accepted an invalid config")
	}
}

// FuzzIndexAdd feeds arbitrary name/group material through random batch
// splits and checks the incremental cover against the scratch rebuild —
// the nightly-fuzzed version of TestIndexAddMatchesBuildCover.
func FuzzIndexAdd(f *testing.F) {
	f.Add([]byte("a smith\x00b smyth\x00c jones\x00a smith\x00d s\x00bb jones"), uint16(0), int64(1))
	f.Add([]byte("x\x00y\x00z"), uint16(3), int64(9))
	f.Add([]byte("j doe\x00j d\x00jane doe\x00john doe\x00j doe"), uint16(2), int64(3))
	f.Fuzz(func(t *testing.T, raw []byte, groups uint16, seed int64) {
		recs := fuzzRecords(raw, groups)
		if len(recs) == 0 {
			t.Skip("no usable records")
		}
		rng := rand.New(rand.NewSource(seed))
		batches := splitBatches(rng, recs, 4)

		ix, err := NewIndex(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var ingested []bib.Record
		for bi, batch := range batches {
			ingested = append(ingested, batch...)
			union, err := bib.DatasetFromRecords("fuzz", ingested)
			if err != nil {
				t.Skip("records rejected by dataset synthesis")
			}
			got, _, err := ix.Add(context.Background(), union)
			if err != nil {
				t.Fatal(err)
			}
			if want := BuildCover(union, DefaultConfig()); !coversEqual(got, want) {
				t.Fatalf("batch %d: incremental cover diverges from scratch rebuild on %d fuzz records",
					bi, len(ingested))
			}
		}
	})
}

// fuzzRecords turns fuzz bytes into ingestible records: NUL-separated
// names (sanitized to printable ASCII), cyclic group assignment over
// groups+1 groups with every third record ungrouped.
func fuzzRecords(raw []byte, groups uint16) []bib.Record {
	const maxRecords, maxName = 48, 24
	var recs []bib.Record
	start := 0
	emit := func(tok []byte) {
		if len(recs) >= maxRecords {
			return
		}
		if len(tok) > maxName {
			tok = tok[:maxName]
		}
		name := make([]byte, 0, len(tok))
		for _, b := range tok {
			switch {
			case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
				name = append(name, b)
			case b == ' ', b == '.', b == '-':
				name = append(name, b)
			default:
				name = append(name, 'a'+b%26)
			}
		}
		if len(name) == 0 {
			return
		}
		g := int32(-1)
		if len(recs)%3 != 2 {
			g = int32(len(recs)) % (int32(groups) + 1)
		}
		recs = append(recs, bib.Record{Name: string(name), Group: g, Gold: -1})
	}
	for i, b := range raw {
		if b == 0 {
			emit(raw[start:i])
			start = i + 1
		}
	}
	emit(raw[start:])
	return recs
}
