package canopy

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/bib"
	"repro/internal/core"
)

// Index is the blocking state of a corpus: every record's q-grams,
// interned to dense ids, the inverted index from gram id to the records
// containing it, and a cached loose-candidate list per record. It is
// the one canopy scorer of this package: BuildCover is an Add over the
// whole dataset, and the incremental ingestion path Adds each arriving
// batch. Add scores only the arriving suffix (the candidate list of a
// record can only *grow* under ingestion, because postings are
// append-only), then re-emits canopies and the total cover from the
// cached lists.
//
// Scoring is a ScanCount similarity join: an arriving record's gram ids
// are looked up in the postings, and the overlap with every earlier
// record is counted straight from them in a dense count array, keeping
// only records whose gram-set size can reach the Loose threshold (the
// Jaccard length filter). The Jaccard of a touched record is then one
// division over the counted overlap, so every record is compared once
// with the records it shares a gram with and never with the rest.
//
// Because every Add reaches the same candidate lists, the cover after
// any sequence of Adds is byte-identical to one Add over the union
// dataset — the property the differential harness and FuzzIndexAdd pin
// — so an incremental pipeline and a cold one agree on the blocking
// stage exactly.
//
// Index methods serialize internally, so concurrent Adds do not corrupt
// state — but the SECOND of two concurrent Adds still observes the
// first one's ingestion. Callers advancing a shared stream from a known
// base should use AddFrom, which detects that atomically.
type Index struct {
	cfg Config

	mu       sync.Mutex
	n        int               // records scored so far
	dict     map[string]uint32 // gram -> dense gram id
	grams    [][]uint32        // distinct gram ids per record, ascending
	postings [][]int32         // gram id -> records containing it, ascending
	cands    [][]scored        // loose candidates per record, ascending id
	levels   *nameLevels       // name-level memo of aligned expansion and CandidatePairs; not saved
	aligned  []alignedAdds     // aligned additions per canopy of the last cover; not saved

	prevSets map[string]bool   // content keys of the previous cover's sets
	prevByID [][]core.EntityID // previous cover's sets by id (aliases, read-only)
	cover    *core.Cover       // cover built by the last Add
}

// ErrStale reports that AddFrom found the index already advanced past
// the caller's base — another ingestion got there first (a forked or
// concurrent stream). The caller's view is outdated; rebuild from its
// own records.
var ErrStale = errors.New("canopy: index advanced past the caller's base")

// Delta reports what one Add changed: the appended entities and which
// neighborhoods of the new cover cannot be assumed unchanged.
type Delta struct {
	// NewEntities are the record ids ingested by this Add (the dense
	// suffix [oldLen, newLen) of the union dataset).
	NewEntities []core.EntityID
	// Changed are the ids of cover sets with no content-identical
	// counterpart in the previous cover: brand-new neighborhoods plus
	// every neighborhood whose membership shifted. Together with the
	// entity- and candidate-level Affected expansion these are the
	// neighborhoods a warm-started run must re-activate.
	Changed []int32
	// Additive reports whether the new cover only GREW in place: set ids
	// are stable under ingestion (old seeds emit their canopies in the
	// same order, new ones append), and Additive is true when every
	// previous set is a subset of the set with the same id. That is the
	// warm-start safety condition — grown neighborhoods can only grow a
	// monotone matcher's output, so prior matches remain valid committed
	// evidence. When false (the total-cover patching moved a boundary
	// member elsewhere, shrinking some neighborhood relative to its
	// predecessor), prior evidence may be unreproducible from scratch and
	// the caller must fall back to a full re-run.
	Additive bool
	// Regressed lists the set ids violating Additive (empty when
	// Additive) — diagnostics for the forced re-run path.
	Regressed []int32
}

// NewIndex returns an empty delta index. The configuration is validated
// once here; Add never re-validates.
func NewIndex(cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Index{cfg: cfg, dict: map[string]uint32{}, prevSets: map[string]bool{}}, nil
}

// Config returns the blocking configuration the index was built with.
// Covers are only comparable between identically configured indexes.
func (ix *Index) Config() Config { return ix.cfg }

// Len returns the number of records ingested so far.
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.n
}

// Cover returns the cover built by the last Add (nil before the first).
func (ix *Index) Cover() *core.Cover {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.cover
}

// Add ingests the new suffix of the union dataset d — the records
// d.Refs[ix.Len():] — into the q-gram structures, rebuilds the total
// cover over all of d, and reports the delta. The caller owns dataset
// synthesis: d must extend the previously ingested records in place
// (names and groups of records [0, ix.Len()) unchanged), which
// DatasetFromRecords guarantees for appended record batches.
//
// Cost is proportional to the delta: each new record is scored once
// against the postings of the records before it, old records are never
// re-scored, the aligned expansion re-walks only the canopies the delta
// can change (see alignedExpandInto), and only canopy emission plus
// cover patching — bookkeeping over cached lists — runs over the full
// corpus. A canceled ctx aborts with ctx.Err(); records already scored
// stay ingested, and the next Add resumes after them.
func (ix *Index) Add(ctx context.Context, d *bib.Dataset) (*core.Cover, *Delta, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.add(ctx, d)
}

// AddFrom is Add for shared streams: it atomically verifies the index
// still sits at the caller's base record count before ingesting, and
// returns ErrStale if another Add advanced it first. This closes the
// check-then-act gap of probing Len before Add from concurrent or
// forked callers.
func (ix *Index) AddFrom(ctx context.Context, d *bib.Dataset, base int) (*core.Cover, *Delta, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.n != base {
		return nil, nil, fmt.Errorf("%w (index at %d, caller at %d)", ErrStale, ix.n, base)
	}
	return ix.add(ctx, d)
}

func (ix *Index) add(ctx context.Context, d *bib.Dataset) (*core.Cover, *Delta, error) {
	n := d.NumRefs()
	if n < ix.n {
		return nil, nil, fmt.Errorf("canopy: index holds %d records but dataset has %d (records must only be appended)", ix.n, n)
	}
	covered := 0 // records the last cover spans; fewer than ix.n after a canceled Add
	if ix.cover != nil {
		if n == ix.cover.NumEntities {
			// Nothing arrived: the cover is unchanged, which is
			// trivially additive.
			return ix.cover, &Delta{Additive: true}, nil
		}
		covered = ix.cover.NumEntities
	}
	delta := &Delta{NewEntities: make([]core.EntityID, 0, n-covered)}
	for id := covered; id < n; id++ {
		delta.NewEntities = append(delta.NewEntities, core.EntityID(id))
	}

	// Phase 1 — score the arriving suffix.
	if err := ix.score(ctx, n, func(id int) string { return d.Refs[id].Name }); err != nil {
		return nil, nil, err
	}

	// Phase 2 — re-emit canopies over the full corpus from the cached
	// candidate lists.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sets := ix.emit()

	// Phase 3 — total-cover construction.
	var aligned []alignedAdds
	if ix.cfg.FullBoundary {
		sets = ExpandBoundary(sets, d.Coauthor())
	} else {
		// Totality patching runs FIRST, on the raw canopies: canopy sets
		// and their ids are append-stable under record ingestion, so
		// patch placement (lowest containing id) never moves for old
		// edges and the cover stays additive across deltas. Aligned
		// relational context is absorbed afterwards (driven by the
		// canopy pairs, added to the patched sets); it only grows sets
		// and cannot re-route patches.
		canopies := sets
		sets = GreedyTotalCover(canopies, d.Coauthor())
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if ix.levels == nil {
			ix.levels = newNameLevels()
		}
		sets, aligned = alignedExpandInto(ix.levels, d, canopies, sets, ix.cfg.MaxAligned, ix.aligned, gainedCoauthor(d, covered))
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// The aligned lists describe this cover: they advance with it, so a
	// canceled Add can never leave them ahead of it.
	ix.cover = core.NewCover(n, sets)
	ix.aligned = aligned

	// Phase 4 — diff against the previous cover, by content (Changed)
	// and by id (Additive). Set ids are stable under ingestion, so the
	// id-wise subset test detects neighborhoods that SHRANK relative to
	// their predecessor — the case that invalidates warm starts.
	next := make(map[string]bool, len(ix.cover.Sets))
	delta.Additive = true
	for i, set := range ix.cover.Sets {
		key := setKey(set)
		next[key] = true
		if !ix.prevSets[key] {
			delta.Changed = append(delta.Changed, int32(i))
		}
		if i < len(ix.prevByID) && !subsetOf(ix.prevByID[i], set) {
			delta.Additive = false
			delta.Regressed = append(delta.Regressed, int32(i))
		}
	}
	ix.prevSets = next
	ix.prevByID = ix.cover.Sets
	return ix.cover, delta, nil
}

// gainedCoauthor marks the records of d that gained a coauthor since
// the first covered records were covered: every coauthor of a record
// with id ≥ covered. Records only append, so edges among older records
// never change.
func gainedCoauthor(d *bib.Dataset, covered int) []bool {
	rel := d.Coauthor()
	gained := make([]bool, d.NumRefs())
	for id := covered; id < d.NumRefs(); id++ {
		for _, u := range rel.Neighbors(core.EntityID(id)) {
			gained[u] = true
		}
	}
	return gained
}

// subsetOf reports a ⊆ b for ascending-sorted entity slices.
func subsetOf(a, b []core.EntityID) bool {
	j := 0
	for _, e := range a {
		for j < len(b) && b[j] < e {
			j++
		}
		if j >= len(b) || b[j] != e {
			return false
		}
		j++
	}
	return true
}

// emit runs the canopy emission loop over the cached candidate lists
// (already loose-filtered and id-sorted): seeds in ascending id order,
// each taking the in-pool record's candidates as its canopy (capped at
// MaxNeighborhood) and removing the Tight ones from the seed pool.
func (ix *Index) emit() [][]core.EntityID {
	inPool := make([]bool, ix.n)
	for i := range inPool {
		inPool[i] = true
	}
	var canopies [][]core.EntityID
	for seed := 0; seed < ix.n; seed++ {
		if !inPool[seed] {
			continue
		}
		kept := ix.cands[seed]
		if len(kept) == 0 {
			kept = []scored{{ID: core.EntityID(seed), Sim: 1}}
		}
		if ix.cfg.MaxNeighborhood > 0 && len(kept) > ix.cfg.MaxNeighborhood {
			kept = capCanopy(kept, core.EntityID(seed), ix.cfg.MaxNeighborhood)
		}
		canopy := make([]core.EntityID, len(kept))
		for i, c := range kept {
			canopy[i] = c.ID
			if c.Sim >= ix.cfg.Tight {
				inPool[c.ID] = false
			}
		}
		inPool[seed] = false
		canopies = append(canopies, canopy)
	}
	return canopies
}

// setKey renders a sorted entity slice as a map key for content diffing.
func setKey(set []core.EntityID) string {
	b := make([]byte, 0, len(set)*4)
	for _, e := range set {
		b = append(b, byte(e), byte(e>>8), byte(e>>16), byte(e>>24))
	}
	return string(b)
}

// score ingests records [ix.n, n), named by name(id), in id order. Each
// record's distinct gram ids are interned and appended to the postings
// *before* its probe, which makes the record its own candidate (Jaccard
// 1 ≥ Loose) and lets later records see earlier ones. The probe is
// ScanCount: overlap counts accumulate in count over the postings of the
// record's grams, skipping records outside the Jaccard length filter,
// and every touched record's similarity is inter/(|a|+|b|-inter). The
// candidate relation is symmetric, so a candidate j also gains the new
// record — appended, which keeps cands[j] ascending because new ids
// exceed all previous ones. A canceled ctx stops between records.
func (ix *Index) score(ctx context.Context, n int, name func(id int) string) error {
	count := make([]int32, n)
	var touched []int32
	var buf []uint32
	for ix.n < n {
		if err := ctx.Err(); err != nil {
			return err
		}
		id := int32(ix.n)
		buf = ix.intern(buf[:0], normalize(name(ix.n)))
		g := slices.Clone(buf)
		ix.grams = append(ix.grams, g)
		for _, gid := range g {
			ix.postings[gid] = append(ix.postings[gid], id)
		}
		la := len(g)
		lo, hi := lengthRange(la, ix.cfg.Loose)
		touched = touched[:0]
		for _, gid := range g {
			for _, j := range ix.postings[gid] {
				if lb := len(ix.grams[j]); lb < lo || lb > hi {
					continue
				}
				if count[j] == 0 {
					touched = append(touched, j)
				}
				count[j]++
			}
		}
		var own []scored
		for _, j := range touched {
			inter := int(count[j])
			count[j] = 0
			if s := gramJaccard(inter, la, len(ix.grams[j])); s >= ix.cfg.Loose {
				own = append(own, scored{ID: j, Sim: s})
			}
		}
		slices.SortFunc(own, func(a, b scored) int { return int(a.ID) - int(b.ID) })
		for _, c := range own {
			if c.ID != id {
				ix.cands[c.ID] = append(ix.cands[c.ID], scored{ID: id, Sim: c.Sim})
			}
		}
		ix.cands = append(ix.cands, own)
		ix.n++
	}
	return nil
}

// gramJaccard is the Jaccard similarity of two gram sets of sizes la and
// lb sharing inter grams. The scorer and LoadIndex both compute it here,
// so a reloaded candidate's similarity is bit-identical to the scored one.
func gramJaccard(inter, la, lb int) float64 {
	return float64(inter) / float64(la+lb-inter)
}

// intern appends to buf the distinct gram ids of the normalized name s,
// ascending, adding unseen grams to the dictionary. The grams follow
// similarity.QGrams: every q-gram of s, or s itself when it is shorter
// than q, and none for an empty s.
func (ix *Index) intern(buf []uint32, s string) []uint32 {
	if w := min(ix.cfg.Q, len(s)); w > 0 {
		for i := 0; i+w <= len(s); i++ {
			gid, ok := ix.dict[s[i:i+w]]
			if !ok {
				gid = uint32(len(ix.postings))
				ix.dict[strings.Clone(s[i:i+w])] = gid
				ix.postings = append(ix.postings, nil)
			}
			buf = append(buf, gid)
		}
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// lengthRange returns the gram-set sizes [lo, hi] a record with la > 0
// grams can reach Jaccard ≥ loose with. Jaccard is at most
// min(la,lb)/max(la,lb), so lb must satisfy loose·la ≤ lb ≤ la/loose;
// both ends are settled with the same float64 division the score uses,
// so the filter never drops a pair the score would keep.
func lengthRange(la int, loose float64) (lo, hi int) {
	fits := func(small, large int) bool { return float64(small)/float64(large) >= loose }
	lo = max(1, min(la, int(loose*float64(la))))
	for lo > 1 && fits(lo-1, la) {
		lo--
	}
	for !fits(lo, la) {
		lo++
	}
	bound := float64(la) / loose
	if bound >= math.MaxInt32 {
		return lo, math.MaxInt32
	}
	hi = max(la, int(bound))
	for hi > la && !fits(la, hi) {
		hi--
	}
	for fits(la, hi+1) {
		hi++
	}
	return lo, hi
}
