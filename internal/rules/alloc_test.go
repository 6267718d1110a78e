package rules

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
)

// TestMatchCostIgnoresOutOfScopeEvidence: a Match call reads the global
// evidence in place, so its cost follows the neighborhood, not V+. The
// same 5-entity neighborhood is matched with 10 and then 10,000
// out-of-scope V+ pairs; copying V+ would make the second call allocate
// far more, and scanning it would make it far slower.
func TestMatchCostIgnoresOutOfScopeEvidence(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	papers := [][]ref{
		{{"Vibhor Rastogi", 0}, {"Nilesh Dalvi", 1}},
		{{"Vibhor Rastogi", 0}, {"N. Dalvi", 1}, {"Minos Garofalakis", 2}},
	}
	for i := 0; i < 150; i++ {
		papers = append(papers, []ref{{fmt.Sprintf("Filler%03d Author", i), 10 + i}})
	}
	d := buildDataset(papers)
	m := newMatcher(t, d)
	entities := []core.EntityID{0, 1, 2, 3, 4}
	evidence := func(n int) core.PairSet {
		s := core.NewPairSet()
		for a := core.EntityID(5); s.Len() < n; a++ {
			for b := a + 1; int(b) < d.NumRefs() && s.Len() < n; b++ {
				s.Add(core.MakePair(a, b))
			}
		}
		return s
	}
	small, large := evidence(10), evidence(10000)
	if large.Len() != 10000 {
		t.Fatalf("built %d out-of-scope pairs, want 10000", large.Len())
	}
	if out := m.Match(entities, small, nil); !out.Has(core.MakePair(0, 2)) || !out.Has(core.MakePair(1, 3)) {
		t.Fatalf("fixture derives nothing: %v", out.Sorted())
	}
	allocs := func(pos core.PairSet) float64 {
		return testing.AllocsPerRun(100, func() { m.Match(entities, pos, nil) })
	}
	a, b := allocs(small), allocs(large)
	const slack = 2
	if b > a+slack {
		t.Errorf("Match allocates %.1f times with 10 out-of-scope V+ pairs but %.1f with 10,000", a, b)
	}
	// Iterating V+ allocates nothing, so time the calls as well: the
	// fastest of several batches, to shrug off scheduling noise. A scan
	// of 10,000 pairs costs hundreds of calls' worth; probing the
	// neighborhood's 10 entity pairs costs the same either way.
	fastest := func(pos core.PairSet) time.Duration {
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 7; rep++ {
			start := time.Now()
			for i := 0; i < 200; i++ {
				m.Match(entities, pos, nil)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	if ts, tl := fastest(small), fastest(large); tl > 4*ts {
		t.Errorf("Match takes %v per 200 calls with 10 out-of-scope V+ pairs but %v with 10,000", ts, tl)
	}
}
