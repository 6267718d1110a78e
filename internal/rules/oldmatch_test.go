package rules

import (
	"sort"

	"repro/internal/core"
	"repro/internal/similarity"
	"repro/internal/unionfind"
)

// This file keeps the engine's pre-rewrite Match verbatim — global
// evidence cloned into one equals set on every call — together with the
// Union-based seeding of the wrapper the rules language used to put
// around it, as the oracle the in-place engine is pinned against.
// Only field access is adapted: the old engine kept its program and
// indexed it by level in a map, so the oracle takes the program rs.

// matchSeededOld is the old lang wrapper: every call sees the caller's
// evidence united with the program's seeds, read off the candidates'
// flags.
func matchSeededOld(m *Matcher, rs []Rule, entities []core.EntityID, pos, neg core.PairSet) core.PairSet {
	spos, sneg := core.NewPairSet(), core.NewPairSet()
	for id, p := range m.pairs {
		if m.seed[id]&SeedEqual != 0 {
			spos.Add(p)
		}
		if m.seed[id]&SeedDistinct != 0 {
			sneg.Add(p)
		}
	}
	return matchOld(m, rs, entities, pos.Union(spos), neg.Union(sneg))
}

// matchOld is the old Matcher.Match.
func matchOld(m *Matcher, rs []Rule, entities []core.EntityID, pos, neg core.PairSet) core.PairSet {
	in := make(map[core.EntityID]int32, len(entities))
	for i, e := range entities {
		in[e] = int32(i)
	}
	var scoped []int32
	for _, e := range entities {
		for _, id := range m.pairsOf[e] {
			p := m.pairs[id]
			if p.A == e {
				if _, ok := in[p.B]; ok {
					scoped = append(scoped, id)
				}
			}
		}
	}
	sort.Slice(scoped, func(a, b int) bool { return scoped[a] < scoped[b] })

	// equals holds the global view: all positive evidence plus everything
	// derived so far. out holds the in-scope portion.
	equals := pos.Clone()
	out := core.NewPairSet()
	for p := range pos.All() {
		if neg.Has(p) {
			continue
		}
		_, okA := in[p.A]
		_, okB := in[p.B]
		if okA && okB {
			out.Add(p)
		}
	}

	for {
		changed := false
		for _, id := range scoped {
			p := m.pairs[id]
			if equals.Has(p) || neg.Has(p) {
				continue
			}
			if firesOld(m, rs, id, equals) {
				equals.Add(p)
				out.Add(p)
				changed = true
			}
		}
		if m.applyTC && closeTransitivelyOld(entities, in, equals, neg, out) {
			changed = true
		}
		if !changed {
			break
		}
	}
	return out
}

// matchedCoauthorPairsOld is the old matchedCoauthorPairs.
func matchedCoauthorPairsOld(m *Matcher, p core.Pair, equals core.PairSet, enough int) int {
	if enough == 0 {
		return 0
	}
	seen := map[core.Pair]bool{}
	count := 0
	for _, c1 := range m.co.Neighbors(p.A) {
		for _, c2 := range m.co.Neighbors(p.B) {
			var q core.Pair
			if c1 == c2 {
				q = core.Pair{A: c1, B: c1} // reflexive marker
			} else {
				q = core.MakePair(c1, c2)
				if !equals.Has(q) {
					continue
				}
			}
			if !seen[q] {
				seen[q] = true
				count++
				if count >= enough {
					return count
				}
			}
		}
	}
	return count
}

// firesOld is the old fires.
func firesOld(m *Matcher, rs []Rule, id int32, equals core.PairSet) bool {
	maxLevel := map[similarity.Level][]Rule{}
	for _, r := range rs {
		maxLevel[r.Level] = append(maxLevel[r.Level], r)
	}
	rules := maxLevel[m.level[id]]
	if len(rules) == 0 {
		return false
	}
	need := -1
	for _, r := range rules {
		if need < 0 || r.MinCoauthorMatches < need {
			need = r.MinCoauthorMatches
		}
	}
	if need == 0 {
		return true
	}
	return matchedCoauthorPairsOld(m, m.pairs[id], equals, need) >= need
}

// closeTransitivelyOld is the old closeTransitively.
func closeTransitivelyOld(entities []core.EntityID, in map[core.EntityID]int32, equals, neg, out core.PairSet) bool {
	dsu := unionfind.New(len(entities))
	for p := range out.All() {
		dsu.Union(int(in[p.A]), int(in[p.B]))
	}
	members := map[int][]core.EntityID{}
	for i, e := range entities {
		r := dsu.Find(i)
		members[r] = append(members[r], e)
	}
	changed := false
	for _, comp := range members {
		if len(comp) < 2 {
			continue
		}
		for i := 0; i < len(comp); i++ {
			for j := i + 1; j < len(comp); j++ {
				p := core.MakePair(comp[i], comp[j])
				if equals.Has(p) || neg.Has(p) {
					continue
				}
				equals.Add(p)
				out.Add(p)
				changed = true
			}
		}
	}
	return changed
}
