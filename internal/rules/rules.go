// Package rules implements the paper's second matcher, RULES: a
// declarative collective matcher in the style of Dedupalog (Arasu, Ré &
// Suciu, reference [2]), restricted to the monotone fragment Dedupalog*
// of Appendix A (no negation, transitive closure as a derivation step
// rather than a global constraint — Proposition 5 shows this fragment is
// monotone, so SMP is sound and, empirically, complete for it).
//
// The concrete program is the Appendix B rule set:
//
//  1. similar(e1,e2,3) ⇒ equals(e1,e2)
//  2. similar(e1,e2,2) ∧ one matched coauthor pair   ⇒ equals(e1,e2)
//  3. similar(e1,e2,1) ∧ two distinct matched pairs  ⇒ equals(e1,e2)
//
// evaluated by a semi-naive fixpoint interleaved with transitive closure,
// which mirrors "the 3-approximate algorithm in [2] … followed by a
// transitive closure".
package rules

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/similarity"
	"repro/internal/unionfind"
)

// Rule is one threshold rule of the Dedupalog* program: a pair at exactly
// Level fires when at least MinCoauthorMatches distinct coauthor pairs
// are already matched (a shared identical coauthor reference counts as
// matched by reflexivity).
type Rule struct {
	Level              similarity.Level
	MinCoauthorMatches int
}

// Program-validation errors, matchable with errors.Is. Validate wraps
// each with the offending rule's details.
var (
	// ErrNegativeSupport marks a rule demanding a negative number of
	// matched coauthor pairs.
	ErrNegativeSupport = errors.New("rules: negative coauthor requirement")
	// ErrUnknownLevel marks a rule on a level outside the discretized
	// similarity buckets {1, 2, 3}: no candidate ever carries such a
	// level, so the rule can never fire.
	ErrUnknownLevel = errors.New("rules: unknown similarity level")
	// ErrDuplicateLevel marks a program with two rules on the same
	// level. Evaluation takes the least-demanding rule per level, so the
	// more-demanding duplicate is dead weight — almost always a program
	// mistake (the author meant a different level).
	ErrDuplicateLevel = errors.New("rules: duplicate rule level")
)

// Validate checks a rule program for the degenerate shapes New used to
// accept silently: negative support requirements, rules on levels no
// candidate can carry, and duplicate levels (only the least-demanding
// rule of a level is ever consulted, so a duplicate is dead). An empty
// program is valid — it simply derives nothing.
func Validate(rs []Rule) error {
	seen := map[similarity.Level]int{}
	for i, r := range rs {
		if r.MinCoauthorMatches < 0 {
			return fmt.Errorf("%w: rule %d wants %d matched coauthor pairs", ErrNegativeSupport, i, r.MinCoauthorMatches)
		}
		if r.Level < similarity.LevelWeak || r.Level > similarity.LevelStrong {
			return fmt.Errorf("%w: rule %d fires on level %d, want 1..3", ErrUnknownLevel, i, r.Level)
		}
		if j, dup := seen[r.Level]; dup {
			return fmt.Errorf("%w: rules %d and %d both fire on level %d", ErrDuplicateLevel, j, i, r.Level)
		}
		seen[r.Level] = i
	}
	return nil
}

// PaperRules returns the Appendix B program.
func PaperRules() []Rule {
	return []Rule{
		{Level: similarity.LevelStrong, MinCoauthorMatches: 0},
		{Level: similarity.LevelMedium, MinCoauthorMatches: 1},
		{Level: similarity.LevelWeak, MinCoauthorMatches: 2},
	}
}

// Candidate is a match variable: a reference pair with its level and
// its hard evidence flags.
type Candidate struct {
	Pair  core.Pair
	Level similarity.Level
	Seed  Seed
}

// Seed marks a candidate as hard evidence of the program — Dedupalog's
// hard rules "equals(x, y) ⇐ AuthorEQ(x, y)" and their negated form (see
// hardseed_doc.go). Seeds are part of the ground engine: a seeded
// candidate sits in the V+ or V− slot of every Match call as if the
// caller had passed it.
type Seed uint8

const (
	// SeedEqual puts the candidate in V+ on every call.
	SeedEqual Seed = 1 << iota
	// SeedDistinct puts the candidate in V− on every call. It wins over
	// SeedEqual and over caller V+ (the pair is never output), but a pair
	// that is also in V+ still counts as coauthor support.
	SeedDistinct
)

// Matcher is the ground RULES program over one dataset. It implements
// core.Matcher (Type-I only — RULES is not probabilistic, so MMP does not
// apply; Appendix C evaluates it with NO-MP, SMP and FULL). The model is
// immutable after construction and safe for concurrent use.
type Matcher struct {
	co      *graph.Graph
	pairs   []core.Pair
	idOf    map[core.Pair]int32
	level   []similarity.Level
	seed    []Seed // hard evidence flags per candidate
	seeds   Seed   // union of all candidates' flags
	pairsOf [][]int32
	applyTC bool
	need    [similarity.LevelStrong + 1]int // matched coauthor pairs a level needs; -1: no rule
}

// Option configures a Matcher.
type Option func(*Matcher)

// WithInterleavedClosure enables transitive closure *inside* the rule
// fixpoint (Dedupalog's global-constraint semantics). The default is off,
// matching the paper's own evaluation ("we use the 3-approximate
// algorithm … WITHOUT transitive closure, followed by a transitive
// closure at the end", Appendix B): interleaved closure uses pairs that
// never share a neighborhood and therefore breaks the exact
// SMP-equals-FULL property; end-of-run closure (a harness step) does not.
func WithInterleavedClosure() Option {
	return func(m *Matcher) { m.applyTC = true }
}

// New grounds the program for a dataset over candidate pairs, with the
// candidates' seed flags as hard evidence.
func New(d *bib.Dataset, cands []Candidate, rs []Rule, opts ...Option) (*Matcher, error) {
	m := &Matcher{
		co:      d.Coauthor(),
		pairs:   make([]core.Pair, len(cands)),
		idOf:    make(map[core.Pair]int32, len(cands)),
		level:   make([]similarity.Level, len(cands)),
		seed:    make([]Seed, len(cands)),
		pairsOf: make([][]int32, d.NumRefs()),
	}
	if err := Validate(rs); err != nil {
		return nil, err
	}
	for i := range m.need {
		m.need[i] = -1
	}
	for _, r := range rs {
		m.need[r.Level] = r.MinCoauthorMatches
	}
	for i, c := range cands {
		if !c.Pair.Valid() {
			return nil, fmt.Errorf("rules: invalid candidate pair %v", c.Pair)
		}
		if _, dup := m.idOf[c.Pair]; dup {
			return nil, fmt.Errorf("rules: duplicate candidate pair %v", c.Pair)
		}
		m.pairs[i] = c.Pair
		m.idOf[c.Pair] = int32(i)
		m.level[i] = c.Level
		m.seed[i] = c.Seed
		m.seeds |= c.Seed
		m.pairsOf[c.Pair.A] = append(m.pairsOf[c.Pair.A], int32(i))
		m.pairsOf[c.Pair.B] = append(m.pairsOf[c.Pair.B], int32(i))
	}
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// NumPairs returns the number of ground candidates.
func (m *Matcher) NumPairs() int { return len(m.pairs) }

// Candidates implements core.Matcher.
func (m *Matcher) Candidates(entities []core.EntityID) []core.Pair {
	in := make(map[core.EntityID]bool, len(entities))
	for _, e := range entities {
		in[e] = true
	}
	var out []core.Pair
	for _, e := range entities {
		for _, id := range m.pairsOf[e] {
			p := m.pairs[id]
			if p.A == e && in[p.B] {
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// evidence is one Match call's view of the global evidence, read in
// place: V+ is the caller's pos, the SeedEqual candidates and the pairs
// derived so far; V− is the caller's neg and the SeedDistinct
// candidates. out is the call's only set — the in-scope V+ pairs outside
// V− plus everything derived — and a subset of V+, so the derived pairs
// need no set of their own.
type evidence struct {
	m        *Matcher
	pos, neg core.PairSet
	out      core.PairSet
}

// seedOf returns the seed flags of p, zero when p is no candidate.
func (m *Matcher) seedOf(p core.Pair) Seed {
	if m.seeds == 0 {
		return 0
	}
	if id, ok := m.idOf[p]; ok {
		return m.seed[id]
	}
	return 0
}

// equal reports p ∈ V+.
func (ev *evidence) equal(p core.Pair) bool {
	k := p.Key()
	return ev.out.HasKey(k) || ev.pos.HasKey(k) || ev.m.seedOf(p)&SeedEqual != 0
}

// distinct reports p ∈ V−.
func (ev *evidence) distinct(p core.Pair) bool {
	return ev.neg.Has(p) || ev.m.seedOf(p)&SeedDistinct != 0
}

// matchedCoauthorPairs counts distinct coauthor-pair support for p given
// the current V+: unordered pairs (c1, c2) with c1 ∈ N(p.A),
// c2 ∈ N(p.B), and either c1 == c2 (reflexivity) or (c1, c2) ∈ V+.
// Counting stops at enough, keeping rule checks cheap, so the pairs
// counted so far fit a short slice.
func (ev *evidence) matchedCoauthorPairs(p core.Pair, enough int) int {
	if enough == 0 {
		return 0
	}
	var buf [4]core.PairKey
	seen := buf[:0]
	for _, c1 := range ev.m.co.Neighbors(p.A) {
		for _, c2 := range ev.m.co.Neighbors(p.B) {
			var q core.Pair
			if c1 == c2 {
				q = core.Pair{A: c1, B: c1} // reflexive marker
			} else {
				q = core.MakePair(c1, c2)
				if !ev.equal(q) {
					continue
				}
			}
			if !slices.Contains(seen, q.Key()) {
				seen = append(seen, q.Key())
				if len(seen) >= enough {
					return len(seen)
				}
			}
		}
	}
	return len(seen)
}

// fires reports whether a rule derives candidate id under the current V+.
func (ev *evidence) fires(id int32) bool {
	l := ev.m.level[id]
	if l < 0 || int(l) >= len(ev.m.need) || ev.m.need[l] < 0 {
		return false
	}
	need := ev.m.need[l]
	return need == 0 || ev.matchedCoauthorPairs(ev.m.pairs[id], need) >= need
}

// Match implements core.Matcher: semi-naive fixpoint of the rules over
// the in-scope candidates, interleaved with transitive closure over the
// in-scope entities, seeded by the positive evidence (which, like the
// MLN matcher, is consulted globally for coauthor support). Negative
// evidence suppresses pairs from derivation and output. pos and neg are
// read in place, never copied or iterated beyond the smaller of pos and
// the neighborhood's entity pairs, so a call costs what its
// neighborhood costs.
func (m *Matcher) Match(entities []core.EntityID, pos, neg core.PairSet) core.PairSet {
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
	slices.Sort(scoped)

	ev := &evidence{m: m, pos: pos, neg: neg, out: core.NewPairSet()}
	// The in-scope V+ pairs outside V−: the caller's, found by probing
	// the neighborhood's entity pairs or by scanning pos, whichever is
	// fewer lookups, and the equal-seeded candidates.
	if k := len(entities); k*(k-1)/2 < pos.Len() {
		for i, a := range entities {
			for _, b := range entities[i+1:] {
				if p := core.MakePair(a, b); pos.Has(p) && !ev.distinct(p) {
					ev.out.Add(p)
				}
			}
		}
	} else {
		for p := range pos.All() {
			_, okA := in[p.A]
			_, okB := in[p.B]
			if okA && okB && !ev.distinct(p) {
				ev.out.Add(p)
			}
		}
	}
	for _, id := range scoped {
		if m.seed[id] == SeedEqual && !neg.Has(m.pairs[id]) {
			ev.out.Add(m.pairs[id])
		}
	}

	for {
		changed := false
		for _, id := range scoped {
			p := m.pairs[id]
			// A seeded candidate is in V+ or V− already.
			if m.seed[id] != 0 || ev.out.Has(p) || pos.Has(p) || neg.Has(p) {
				continue
			}
			if ev.fires(id) {
				ev.out.Add(p)
				changed = true
			}
		}
		if m.applyTC && ev.closeTransitively(entities, in) {
			changed = true
		}
		if !changed {
			break
		}
	}
	return ev.out
}

// closeTransitively adds, for every connected component of in-scope
// matched pairs, all missing component pairs outside V− to out. Reports
// whether anything was added.
func (ev *evidence) closeTransitively(entities []core.EntityID, in map[core.EntityID]int32) bool {
	dsu := unionfind.New(len(entities))
	for p := range ev.out.All() {
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
				if ev.equal(p) || ev.distinct(p) {
					continue
				}
				ev.out.Add(p)
				changed = true
			}
		}
	}
	return changed
}

var _ core.Matcher = (*Matcher)(nil)
