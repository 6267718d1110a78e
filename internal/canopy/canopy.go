// Package canopy builds covers (§4 of the paper): it implements the
// Canopies algorithm of McCallum, Nigam & Ungar (reference [13]) over a
// cheap q-gram similarity, computed by a ScanCount similarity join over
// interned grams (see Index), and then turns the canopies into a *total
// cover* (Definition 7) by expanding every
// neighborhood with its boundary w.r.t. the Coauthor relation — exactly
// the construction §4 describes ("we construct a total cover by first
// constructing a total cover over Similar using Canopies, and then taking
// the boundary of each neighborhood with respect to other relations").
package canopy

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/similarity"
)

// Config controls canopy construction.
type Config struct {
	// Loose is the cheap-similarity threshold for joining a canopy
	// (T2 in McCallum et al.; loose < tight).
	Loose float64
	// Tight is the threshold beyond which a point is considered well
	// covered and removed from the seed pool (T1).
	Tight float64
	// Q is the q-gram size of the cheap similarity.
	Q int
	// MaxAligned bounds how much relational context each neighborhood
	// absorbs: for every name-similar pair inside a canopy core, up to
	// MaxAligned *aligned coauthor pairs* (the (c1, c2) combinations that
	// ground the MLN's coauthor rule) are pulled into the neighborhood.
	// This is the paper's "sizes of neighborhoods are bounded" regime:
	// with a small cap, a collective clique of correlated pairs is
	// fragmented across the neighborhoods of its members — exactly the
	// Figure 2 situation that simple and maximal messages reassemble.
	// Ignored when FullBoundary is set.
	MaxAligned int
	// FullBoundary switches total-cover construction to full boundary
	// expansion: every neighborhood absorbs all relation neighbors of its
	// members, making essentially all relational evidence local. Kept for
	// ablation: it trades much larger neighborhoods (and a much more
	// expensive matcher) for less message traffic.
	FullBoundary bool
	// MaxNeighborhood, when > 0, bounds the size of every canopy core:
	// a canopy keeps its seed plus the MaxNeighborhood-1 most similar
	// members (ties broken by ascending id). Records dropped by the cap
	// stay in the seed pool, so they still seed canopies of their own and
	// the result remains a cover. This is the paper's "sizes of
	// neighborhoods are bounded" knob at the blocking stage; the later
	// relational expansion (MaxAligned, totality patching) may still grow
	// neighborhoods past the cap by a bounded amount.
	MaxNeighborhood int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case !(c.Loose > 0 && c.Loose <= 1):
		return fmt.Errorf("canopy: Loose = %v out of (0,1]", c.Loose)
	case !(c.Tight >= c.Loose && c.Tight <= 1):
		return fmt.Errorf("canopy: Tight = %v out of [Loose,1]", c.Tight)
	case c.Q <= 0:
		return fmt.Errorf("canopy: Q = %d, want > 0", c.Q)
	case c.MaxAligned < 0:
		return fmt.Errorf("canopy: negative MaxAligned")
	case c.MaxNeighborhood < 0:
		return fmt.Errorf("canopy: negative MaxNeighborhood")
	case c.MaxNeighborhood > 0 && c.MaxNeighborhood < 2:
		return fmt.Errorf("canopy: MaxNeighborhood = %d, want 0 (unbounded) or >= 2", c.MaxNeighborhood)
	}
	return nil
}

// DefaultConfig returns thresholds tuned so that (essentially) every pair
// with a non-zero discretized name-similarity level lands in a shared
// canopy: 2-grams are robust to single-character typos and to first-name
// abbreviation, and the loose threshold is low enough that true-match
// pairs are practically never blocked apart (verified in the tests).
func DefaultConfig() Config {
	return Config{Loose: 0.42, Tight: 0.85, Q: 2, MaxAligned: 1}
}

// normalize renders a reference name into canonical "first last" form so
// that punctuation and case do not affect gram overlap.
func normalize(name string) string {
	return similarity.ParseName(name).String()
}

// Canopies clusters the given names into (possibly overlapping) canopies
// and returns each canopy as a list of indices into names. Every name is
// in at least one canopy. Seeds are processed in ascending index order,
// making the construction deterministic.
func Canopies(names []string, cfg Config) [][]core.EntityID {
	sets, err := CanopiesContext(context.Background(), names, cfg, 1)
	if err != nil {
		panic(err) // a background context never cancels; cfg is the caller's bug
	}
	return sets
}

// scored is one canopy candidate of a seed: a record id with its cheap
// q-gram similarity to the seed. The fields are exported for gob (see
// Index.Save).
type scored struct {
	ID  core.EntityID
	Sim float64
}

// CanopiesContext is Canopies with context cancellation: the names are
// scored by the Index's ScanCount join and the canopies emitted from the
// candidate lists. Scoring is serial — in measurements, sharding the
// ScanCount probes cost more CPU than it saved — so the output is
// byte-identical for every shard count, which the signature keeps for
// its callers. An invalid cfg is an error; a canceled context aborts
// with ctx.Err().
func CanopiesContext(ctx context.Context, names []string, cfg Config, shards int) ([][]core.EntityID, error) {
	ix, err := NewIndex(cfg)
	if err != nil {
		return nil, err
	}
	if err := ix.score(ctx, len(names), func(id int) string { return names[id] }); err != nil {
		return nil, err
	}
	return ix.emit(), nil
}

// capCanopy keeps the seed plus the k-1 most similar candidates (ties by
// ascending id), returned in ascending id order. Dropped candidates are
// NOT removed from the seed pool by the caller, preserving the cover
// property.
func capCanopy(cands []scored, seed core.EntityID, k int) []scored {
	byRank := append([]scored(nil), cands...)
	sort.Slice(byRank, func(a, b int) bool {
		if byRank[a].ID == seed || byRank[b].ID == seed {
			return byRank[a].ID == seed
		}
		if byRank[a].Sim != byRank[b].Sim {
			return byRank[a].Sim > byRank[b].Sim
		}
		return byRank[a].ID < byRank[b].ID
	})
	byRank = byRank[:k]
	sort.Slice(byRank, func(a, b int) bool { return byRank[a].ID < byRank[b].ID })
	return byRank
}

// ExpandBoundary grows every neighborhood by its boundary w.r.t. rel:
// all entities sharing a relation edge with a member join the
// neighborhood. The result is a total cover w.r.t. rel (§4).
func ExpandBoundary(sets [][]core.EntityID, rel *graph.Graph) [][]core.EntityID {
	out := make([][]core.EntityID, len(sets))
	for i, set := range sets {
		member := map[core.EntityID]bool{}
		for _, e := range set {
			member[e] = true
		}
		expanded := append([]core.EntityID(nil), set...)
		for _, e := range set {
			for _, u := range rel.Neighbors(e) {
				if !member[u] {
					member[u] = true
					expanded = append(expanded, u)
				}
			}
		}
		sort.Slice(expanded, func(a, b int) bool { return expanded[a] < expanded[b] })
		out[i] = expanded
	}
	return out
}

// GreedyTotalCover turns canopies into a total cover (Definition 7) with
// minimal growth: every relation edge not yet inside any single
// neighborhood is patched by adding its missing endpoint to the
// lowest-id neighborhood containing the other endpoint. The result
// covers every relation tuple exactly as Definition 7 requires, while
// neighborhoods stay close to canopy size — which is what fragments
// relational context across neighborhoods and gives message passing its
// role (cf. Figure 2 of the paper, where C1 holds a- and b-references
// but no c-references).
//
// Placement is id-based, not size-based, deliberately: canopy emission
// gives a record's neighborhoods stable ids under ingestion (old seeds
// re-emit in order, new canopies append), so picking the lowest
// containing id keeps patch placement — and with it the whole cover —
// overwhelmingly stable when records are only appended. That stability
// is what lets the delta Index report most ingestion batches as
// additive and the incremental pipeline warm-start instead of re-running
// cold; a size-based rule re-routes patches every time any neighborhood
// grows.
func GreedyTotalCover(sets [][]core.EntityID, rel *graph.Graph) [][]core.EntityID {
	n := rel.N()
	for _, set := range sets {
		for _, e := range set {
			if int(e) >= n {
				n = int(e) + 1
			}
		}
	}
	out := make([][]core.EntityID, len(sets))
	member := make([]map[core.EntityID]bool, len(sets))
	containing := make([][]int32, n)
	for i, set := range sets {
		out[i] = append([]core.EntityID(nil), set...)
		member[i] = make(map[core.EntityID]bool, len(set))
		for _, e := range set {
			member[i][e] = true
			containing[e] = append(containing[e], int32(i))
		}
	}
	share := func(u, v core.EntityID) bool {
		cu, cv := containing[u], containing[v]
		if len(cv) < len(cu) {
			cu, u, v = cv, v, u
		}
		for _, s := range cu {
			if member[s][v] {
				return true
			}
		}
		return false
	}
	// Membership lists start ascending and gain only patched (arbitrary)
	// ids at the tail, so the lowest id is the head unless a patch
	// undercut it — track the minimum explicitly.
	lowestWith := func(e core.EntityID) int32 {
		best := int32(-1)
		for _, s := range containing[e] {
			if best < 0 || s < best {
				best = s
			}
		}
		return best
	}
	add := func(s int32, e core.EntityID) {
		out[s] = append(out[s], e)
		member[s][e] = true
		containing[e] = append(containing[e], s)
	}
	for u := int32(0); u < int32(rel.N()); u++ {
		for _, v := range rel.Neighbors(u) {
			if v <= u || share(u, v) {
				continue
			}
			su, sv := lowestWith(u), lowestWith(v)
			switch {
			case su < 0 && sv < 0:
				// Neither endpoint covered (cannot happen for covers).
			case sv < 0 || (su >= 0 && su <= sv):
				add(su, v)
			default:
				add(sv, u)
			}
		}
	}
	for i := range out {
		sort.Slice(out[i], func(a, b int) bool { return out[i][a] < out[i][b] })
	}
	return out
}

// alignedExpandInto grows each set with bounded relational context: for
// every name-similar pair (a, b) inside pairSets[i], the endpoints of up
// to maxAligned aligned coauthor pairs — (c1, c2) with c1 ∈ N(a),
// c2 ∈ N(b) and similar names — are added to (a copy of) sets[i].
// BuildCover passes the raw canopies as the pair source and the
// totality-patched sets as the target — patch members are co-located
// for Definition 7, not name-similar, so scanning them for driving
// pairs would cost quadratic similarity work for nothing, and the
// canopy pair source is append-stable under ingestion by construction.
// pairSets[i] must be a subset of sets[i].
//
// When more than maxAligned pairs qualify, the kept ones are those with
// the EARLIEST-ingested endpoints: candidates are ranked by highest
// endpoint id ascending (then lowest endpoint, then c1). Because
// appended records always carry higher ids than everything before them,
// a pair involving a new record can never outrank a previously chosen
// all-old pair — the selection, and with it the whole cover, is stable
// under record ingestion (the property the incremental Index relies
// on). The result is NOT necessarily total; run GreedyTotalCover first.
//
// levels memoises name similarity across calls; it is extended here
// with d's records, so an Index can keep one for its whole stream.
func alignedExpandInto(levels *nameLevels, d *bib.Dataset, pairSets, sets [][]core.EntityID, maxAligned int) [][]core.EntityID {
	if maxAligned <= 0 {
		return sets
	}
	rel := d.Coauthor()
	// Sets overlap heavily and the coauthor products revisit the same
	// pairs constantly; one memoised similarity evaluation per distinct
	// name pair replaces thousands of repeated (allocating) Jaro runs.
	levels.extend(d)
	lvl := levels.level
	out := make([][]core.EntityID, len(sets))
	var combos []alignedPair // reused scratch
	for si, set := range sets {
		member := make(map[core.EntityID]bool, len(set))
		expanded := append([]core.EntityID(nil), set...)
		for _, e := range set {
			member[e] = true
		}
		add := func(e core.EntityID) {
			if !member[e] {
				member[e] = true
				expanded = append(expanded, e)
			}
		}
		pairSet := pairSets[si]
		for i := 0; i < len(pairSet); i++ {
			for j := i + 1; j < len(pairSet); j++ {
				a, b := pairSet[i], pairSet[j]
				if lvl(a, b) == similarity.LevelNone {
					continue
				}
				// Gather the coauthor combinations (cheap, no similarity
				// yet), order them by the ingestion-stable priority, and
				// only then test name similarity, stopping at maxAligned
				// qualifying pairs — the expensive comparisons stay
				// proportional to the scan prefix, not the full product.
				combos = combos[:0]
				for _, c1 := range rel.Neighbors(a) {
					for _, c2 := range rel.Neighbors(b) {
						if c1 != c2 {
							combos = append(combos, alignedPair{c1: c1, c2: c2})
						}
					}
				}
				slices.SortFunc(combos, alignedPair.compare)
				taken := 0
				for _, q := range combos {
					if taken >= maxAligned {
						break
					}
					if lvl(q.c1, q.c2) == similarity.LevelNone {
						continue
					}
					add(q.c1)
					add(q.c2)
					taken++
				}
			}
		}
		sort.Slice(expanded, func(a, b int) bool { return expanded[a] < expanded[b] })
		out[si] = expanded
	}
	return out
}

// alignedPair is one (c1, c2) aligned-coauthor candidate.
type alignedPair struct{ c1, c2 core.EntityID }

// compare ranks by highest endpoint ascending, then lowest endpoint,
// then c1 — the ingestion-stable priority of AlignedExpand (a strict
// total order over distinct combinations).
func (p alignedPair) compare(q alignedPair) int {
	pmax, pmin := p.c1, p.c2
	if pmax < pmin {
		pmax, pmin = pmin, pmax
	}
	qmax, qmin := q.c1, q.c2
	if qmax < qmin {
		qmax, qmin = qmin, qmax
	}
	switch {
	case pmax != qmax:
		return int(pmax) - int(qmax)
	case pmin != qmin:
		return int(pmin) - int(qmin)
	default:
		return int(p.c1) - int(q.c1)
	}
}

// BuildCover constructs the total cover for a bibliography dataset:
// canopies over reference names, expanded with bounded aligned context
// (cfg.MaxAligned) and patched to totality w.r.t. Coauthor — or fully
// boundary-expanded when cfg.FullBoundary is set.
func BuildCover(d *bib.Dataset, cfg Config) *core.Cover {
	cover, err := BuildCoverContext(context.Background(), d, cfg, 1)
	if err != nil {
		panic(err) // unreachable: background context, serial execution
	}
	return cover
}

// BuildCoverContext is BuildCover with context cancellation: one
// Index.Add over the whole dataset, so a cold build and an incremental
// stream run the same scorer and reach the same cover. The shards
// argument no longer changes anything — scoring is serial, see
// CanopiesContext — and the cover is byte-identical for every value. A
// canceled context aborts with ctx.Err().
func BuildCoverContext(ctx context.Context, d *bib.Dataset, cfg Config, shards int) (*core.Cover, error) {
	ix, err := NewIndex(cfg)
	if err != nil {
		return nil, err
	}
	cover, _, err := ix.Add(ctx, d)
	return cover, err
}

// SimilarPairs enumerates the candidate pairs of a dataset: unordered
// reference pairs with non-zero discretized name similarity that share at
// least one canopy. This is the pair universe the matchers decide (the
// paper's "1.3M matching decisions"). Pairs are returned with their level.
type SimilarPair struct {
	Pair  core.Pair
	Level similarity.Level
}

// CandidatePairs scans a cover and returns every in-neighborhood pair
// with non-zero name-similarity level, deduplicated across
// neighborhoods, in ascending (A, B) order. Each record a visits the
// members above it of every neighborhood containing it, marking the
// ones seen in a stamp array, so every distinct pair is scored once;
// the level is memoised per distinct name pair.
func CandidatePairs(d *bib.Dataset, cover *core.Cover) []SimilarPair {
	levels := newNameLevels()
	levels.extend(d)
	seen := make([]int32, cover.NumEntities) // seen[b] == a+1: pair (a, b) visited
	var out []SimilarPair
	for a := core.EntityID(0); int(a) < cover.NumEntities; a++ {
		from := len(out)
		for _, s := range cover.Containing(a) {
			set := cover.Sets[s]
			i, _ := slices.BinarySearch(set, a+1)
			for _, b := range set[i:] {
				if seen[b] == a+1 {
					continue
				}
				seen[b] = a + 1
				if lvl := levels.level(a, b); lvl > similarity.LevelNone {
					out = append(out, SimilarPair{Pair: core.Pair{A: a, B: b}, Level: lvl})
				}
			}
		}
		slices.SortFunc(out[from:], func(x, y SimilarPair) int { return int(x.Pair.B) - int(y.Pair.B) })
	}
	return out
}

// nameLevels memoises similarity.NameLevel per distinct pair of parsed
// names. Records repeat names heavily (a HEPTH-like cover holds ~14
// record pairs per distinct name pair), and NameLevel is symmetric, so
// one Jaro-Winkler evaluation per unordered name pair serves every
// record pair carrying it. The memo is a map, sized by the pairs
// actually asked for: a dense names×names table would cost more memory
// than the pairs it serves.
type nameLevels struct {
	ids   map[similarity.Name]uint32 // parsed name -> name id
	of    []uint32                   // record -> name id
	names []similarity.Name          // name id -> parsed name
	memo  map[uint64]similarity.Level
}

func newNameLevels() *nameLevels {
	return &nameLevels{ids: map[similarity.Name]uint32{}, memo: map[uint64]similarity.Level{}}
}

// extend interns the names of d's records beyond those already seen;
// records already interned must be unchanged in d.
func (m *nameLevels) extend(d *bib.Dataset) {
	for i := len(m.of); i < d.NumRefs(); i++ {
		name := similarity.ParseName(d.Refs[i].Name)
		id, ok := m.ids[name]
		if !ok {
			id = uint32(len(m.names))
			m.ids[name] = id
			m.names = append(m.names, name)
		}
		m.of = append(m.of, id)
	}
}

// level returns the similarity level of records x and y.
func (m *nameLevels) level(x, y core.EntityID) similarity.Level {
	a, b := m.of[x], m.of[y]
	if a > b {
		a, b = b, a
	}
	k := uint64(a)<<32 | uint64(b)
	v, ok := m.memo[k]
	if !ok {
		v = similarity.NameLevel(m.names[a], m.names[b])
		m.memo[k] = v
	}
	return v
}
