package lang

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/rules"
)

// TestPeopleProgramWellBehaved checks the §3 contracts — idempotence
// and monotonicity in entities, V+ and V− — for the compiled
// testdata/rules/people.rules matcher (level clauses and both seed
// kinds) on the People corpus's cover neighborhoods with random
// evidence. Theorems 2 and 4, and with them every warm == cold and
// SMP == FULL identity, rest on these properties.
func TestPeopleProgramWellBehaved(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "rules", "people.rules"))
	if err != nil {
		t.Fatal(err)
	}
	pl := mustCompile(t, string(src))
	if !pl.Relevels() || !pl.Seeded() {
		t.Fatal("people.rules should relevel and seed")
	}
	d, err := bib.DatasetFromRecords("people-like", datagen.MustGeneratePeople(datagen.PeopleLike(0.5, 42)))
	if err != nil {
		t.Fatal(err)
	}
	cover := canopy.BuildCover(d, canopy.DefaultConfig())
	sp := canopy.CandidatePairs(d, cover)
	cands := make([]rules.Candidate, len(sp))
	for i, s := range sp {
		cands[i] = rules.Candidate{Pair: s.Pair, Level: s.Level}
	}
	m, err := pl.NewMatcher(d, cands)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	// evidence draws each in-scope candidate with probability p, plus
	// out-of-scope candidates (coauthor support) with probability p/4.
	evidence := func(set []core.EntityID, p float64) core.PairSet {
		s := core.NewPairSet()
		for _, c := range m.Candidates(set) {
			if rng.Float64() < p {
				s.Add(c)
			}
		}
		for _, c := range sp {
			if rng.Float64() < p/4 {
				s.Add(c.Pair)
			}
		}
		return s
	}
	sets, derived := 0, 0
	for id, set := range cover.Sets {
		if len(set) < 3 || rng.Intn(3) > 0 {
			continue
		}
		sets++
		pos := evidence(set, 0.1)
		neg := evidence(set, 0.1).Minus(pos)
		if !m.Match(set, pos, neg).Subset(pos) {
			derived++
		}
		if err := core.CheckIdempotence(m, set, pos, neg); err != nil {
			t.Fatalf("set %d: %v", id, err)
		}
		var sub []core.EntityID
		for _, e := range set {
			if rng.Intn(3) > 0 {
				sub = append(sub, e)
			}
		}
		if err := core.CheckMonotoneEntities(m, sub, set, pos, neg); err != nil {
			t.Fatalf("set %d: %v", id, err)
		}
		posBig := pos.Union(evidence(set, 0.1)).Minus(neg)
		if err := core.CheckMonotonePositive(m, set, pos, posBig, neg); err != nil {
			t.Fatalf("set %d: %v", id, err)
		}
		negBig := neg.Union(evidence(set, 0.1)).Minus(pos)
		if err := core.CheckMonotoneNegative(m, set, pos, neg, negBig); err != nil {
			t.Fatalf("set %d: %v", id, err)
		}
	}
	if sets < 10 || derived < sets/2 {
		t.Fatalf("weak fixture: %d neighborhoods checked, %d derive a pair", sets, derived)
	}
}
