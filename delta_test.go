package cem

import (
	"math/rand"
	"slices"
	"testing"

	"repro/match"
)

// TestNewCandidatesIsSetDifference pins the merge walk of affectedByDelta
// against the set difference it replaced, on random ascending candidate
// lists (empty, disjoint, nested and overlapping).
func TestNewCandidatesIsSetDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	list := func(n int, universe int32) []match.Candidate {
		set := match.NewPairSet()
		for i := 0; i < n; i++ {
			a, b := rng.Int31n(universe), rng.Int31n(universe)
			if a != b {
				set.Add(match.MakePair(a, b))
			}
		}
		var out []match.Candidate
		for _, p := range set.Sorted() {
			out = append(out, match.Candidate{Pair: p, Level: match.LevelWeak})
		}
		return out
	}
	for trial := 0; trial < 500; trial++ {
		universe := 2 + rng.Int31n(30)
		cur, old := list(rng.Intn(60), universe), list(rng.Intn(60), universe)
		if trial%5 == 0 {
			old = cur[:rng.Intn(len(cur)+1)] // a prefix: every pair of old is in cur
		}
		oldSet := match.NewPairSet()
		for _, c := range old {
			oldSet.Add(c.Pair)
		}
		var want []match.Pair
		for _, c := range cur {
			if !oldSet.Has(c.Pair) {
				want = append(want, c.Pair)
			}
		}
		if got := newCandidates(cur, old); !slices.Equal(got, want) {
			t.Fatalf("trial %d: newCandidates = %v, set difference = %v", trial, got, want)
		}
	}
}
