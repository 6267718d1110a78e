package rules

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/similarity"
)

// oracleCorpus is one blocked corpus the differential cases draw from.
type oracleCorpus struct {
	name  string
	d     *bib.Dataset
	cover *core.Cover
	cands []Candidate
}

var (
	oracleOnce    sync.Once
	oracleCorpora []*oracleCorpus
)

// corpora blocks the HEPTH-, DBLP- and People-like corpora once per
// test binary.
func corpora() []*oracleCorpus {
	oracleOnce.Do(func() {
		people, err := bib.DatasetFromRecords("people-like", datagen.MustGeneratePeople(datagen.PeopleLike(0.5, 42)))
		if err != nil {
			panic(err)
		}
		for _, c := range []struct {
			name string
			d    *bib.Dataset
		}{
			{"hepth", datagen.MustGenerate(datagen.HEPTHLike(0.08, 5))},
			{"dblp", datagen.MustGenerate(datagen.DBLPLike(0.08, 5))},
			{"people", people},
		} {
			cover := canopy.BuildCover(c.d, canopy.DefaultConfig())
			sp := canopy.CandidatePairs(c.d, cover)
			cands := make([]Candidate, len(sp))
			for i, s := range sp {
				cands[i] = Candidate{Pair: s.Pair, Level: s.Level}
			}
			oracleCorpora = append(oracleCorpora, &oracleCorpus{c.name, c.d, cover, cands})
		}
	})
	return oracleCorpora
}

// oracleCase is one Match input: a ground matcher (random program,
// random seed flags when seeded) and a random neighborhood with random
// evidence.
type oracleCase struct {
	corpus   string
	m        *Matcher
	rs       []Rule
	entities []core.EntityID
	pos, neg core.PairSet
}

// randomCase draws a case from rng. The neighborhood is a cover set, a
// union of two, or a random subset of one, in shuffled order. V+ and V−
// mix in-scope candidates, in-scope non-candidate pairs, out-of-scope
// pairs (candidates — the coauthor support of in-scope pairs — and
// random ones, sometimes thousands, so both ways of finding the
// in-scope V+ pairs run) and pairs in both.
func randomCase(rng *rand.Rand, seeded, closure bool) oracleCase {
	all := corpora()
	c := all[rng.Intn(len(all))]
	n := core.EntityID(c.d.NumRefs())

	programs := [][]Rule{
		PaperRules(),
		{{Level: similarity.LevelStrong, MinCoauthorMatches: 1}, {Level: similarity.LevelMedium, MinCoauthorMatches: 2}},
		{{Level: similarity.LevelStrong}, {Level: similarity.LevelMedium}, {Level: similarity.LevelWeak, MinCoauthorMatches: 1}},
		nil,
	}
	var rs []Rule
	if i := rng.Intn(len(programs) + 1); i < len(programs) {
		rs = programs[i]
	} else {
		for l := similarity.LevelWeak; l <= similarity.LevelStrong; l++ {
			if rng.Intn(4) > 0 {
				rs = append(rs, Rule{Level: l, MinCoauthorMatches: rng.Intn(4)})
			}
		}
	}
	cands := append([]Candidate(nil), c.cands...)
	if seeded {
		for i := range cands {
			if rng.Intn(8) == 0 {
				cands[i].Seed |= SeedEqual
			}
			if rng.Intn(10) == 0 {
				cands[i].Seed |= SeedDistinct
			}
		}
	}
	var opts []Option
	if closure {
		opts = append(opts, WithInterleavedClosure())
	}
	m, err := New(c.d, cands, rs, opts...)
	if err != nil {
		panic(err)
	}

	sets := c.cover.Sets
	set := sets[rng.Intn(len(sets))]
	var entities []core.EntityID
	switch rng.Intn(3) {
	case 0:
		entities = append(entities, set...)
	case 1:
		other := sets[rng.Intn(len(sets))]
		in := map[core.EntityID]bool{}
		for _, e := range append(append([]core.EntityID(nil), set...), other...) {
			if !in[e] {
				in[e] = true
				entities = append(entities, e)
			}
		}
	default:
		for _, e := range set {
			if rng.Intn(3) > 0 {
				entities = append(entities, e)
			}
		}
	}
	rng.Shuffle(len(entities), func(i, j int) { entities[i], entities[j] = entities[j], entities[i] })

	randomPair := func() (core.Pair, bool) {
		a, b := core.EntityID(rng.Int31n(n)), core.EntityID(rng.Int31n(n))
		return core.MakePair(a, b), a != b
	}
	evidence := func() core.PairSet {
		if rng.Intn(6) == 0 {
			return nil
		}
		s := core.NewPairSet()
		for _, p := range m.Candidates(entities) {
			if rng.Intn(5) == 0 {
				s.Add(p)
			}
		}
		for i := 0; i < len(entities) && len(entities) > 1; i++ {
			a, b := entities[rng.Intn(len(entities))], entities[rng.Intn(len(entities))]
			if a != b && rng.Intn(4) == 0 {
				s.Add(core.MakePair(a, b))
			}
		}
		for _, cd := range cands {
			if rng.Intn(12) == 0 {
				s.Add(cd.Pair)
			}
		}
		for k := []int{0, 5, 50, 3000}[rng.Intn(4)]; k > 0; k-- {
			if p, ok := randomPair(); ok {
				s.Add(p)
			}
		}
		return s
	}
	pos, neg := evidence(), evidence()
	if pos != nil && neg != nil {
		for p := range pos.All() {
			if rng.Intn(10) == 0 {
				neg.Add(p)
			}
		}
	}
	return oracleCase{corpus: c.name, m: m, rs: rs, entities: entities, pos: pos, neg: neg}
}

// check compares the engine with the old Match on one case and returns
// the engine's output.
func (oc oracleCase) check() (core.PairSet, error) {
	got := oc.m.Match(oc.entities, oc.pos, oc.neg)
	want := matchSeededOld(oc.m, oc.rs, oc.entities, oc.pos, oc.neg)
	if !got.Equal(want) {
		return nil, fmt.Errorf("%s, %d entities, |pos|=%d, |neg|=%d: extra %v, missing %v",
			oc.corpus, len(oc.entities), oc.pos.Len(), oc.neg.Len(),
			got.Minus(want).Sorted(), want.Minus(got).Sorted())
	}
	return got, nil
}

// TestMatchMatchesOld pins the in-place engine to the old Match with
// Union-based seeding on random neighborhoods of every corpus, with and
// without seeds and interleaved closure.
func TestMatchMatchesOld(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := 60
	if testing.Short() {
		cases = 15
	}
	for _, seeded := range []bool{false, true} {
		for _, closure := range []bool{false, true} {
			t.Run(fmt.Sprintf("seeded=%v/closure=%v", seeded, closure), func(t *testing.T) {
				derived, probed := 0, 0
				for i := 0; i < cases; i++ {
					oc := randomCase(rng, seeded, closure)
					out, err := oc.check()
					if err != nil {
						t.Fatalf("case %d: %v", i, err)
					}
					if !out.Subset(oc.pos) {
						derived++
					}
					if k := len(oc.entities); k*(k-1)/2 < oc.pos.Len() {
						probed++
					}
				}
				// The generator must reach rule firing and both ways of
				// finding the in-scope V+ pairs.
				if derived == 0 || probed == 0 || probed == cases {
					t.Fatalf("weak generator: %d of %d cases derive a pair, %d probe entity pairs", derived, cases, probed)
				}
			})
		}
	}
}

// FuzzMatchMatchesOld drives the same generator from fuzzed seeds.
func FuzzMatchMatchesOld(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, seed&1 == 1, seed&2 == 2)
	}
	f.Fuzz(func(t *testing.T, seed int64, seeded, closure bool) {
		if _, err := randomCase(rand.New(rand.NewSource(seed)), seeded, closure).check(); err != nil {
			t.Fatal(err)
		}
	})
}
