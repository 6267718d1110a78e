package canopy

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/similarity"
)

// canopiesOld is the pre-refactor serial algorithm, kept verbatim to pin
// the refactor's output.
func canopiesOld(names []string, cfg Config) [][]core.EntityID {
	n := len(names)
	norm := make([]string, n)
	grams := make([]map[string]int, n)
	for i, name := range names {
		norm[i] = normalize(name)
		grams[i] = similarity.QGrams(norm[i], cfg.Q)
	}
	index := map[string][]int32{}
	for i := 0; i < n; i++ {
		for g := range grams[i] {
			index[g] = append(index[g], int32(i))
		}
	}
	inPool := make([]bool, n)
	for i := range inPool {
		inPool[i] = true
	}
	var canopies [][]core.EntityID
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	for seed := 0; seed < n; seed++ {
		if !inPool[seed] {
			continue
		}
		var canopy []core.EntityID
		stamp := int32(seed)
		for g := range grams[seed] {
			for _, j := range index[g] {
				if seen[j] == stamp {
					continue
				}
				seen[j] = stamp
				s := jaccard(grams[seed], grams[j])
				if s >= cfg.Loose {
					canopy = append(canopy, j)
					if s >= cfg.Tight {
						inPool[j] = false
					}
				}
			}
		}
		inPool[seed] = false
		if len(canopy) == 0 {
			canopy = []core.EntityID{core.EntityID(seed)}
		}
		sort.Slice(canopy, func(a, b int) bool { return canopy[a] < canopy[b] })
		canopies = append(canopies, canopy)
	}
	return canopies
}

// jaccard computes set Jaccard over two gram maps: the pre-ScanCount
// scorer, kept verbatim for canopiesOld.
func jaccard(a, b map[string]int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	inter := 0
	for g := range a {
		if _, ok := b[g]; ok {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

func TestRefactorMatchesOldAlgorithm(t *testing.T) {
	for _, preset := range []datagen.Config{
		datagen.HEPTHLike(0.25, 42),
		datagen.DBLPLike(0.25, 42),
	} {
		d := datagen.MustGenerate(preset)
		names := make([]string, d.NumRefs())
		for i := range d.Refs {
			names[i] = d.Refs[i].Name
		}
		want := canopiesOld(names, DefaultConfig())
		got := Canopies(names, DefaultConfig())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: refactored canopies differ from the old algorithm", preset.Name)
		}
	}
}

// candidatePairsOld is the pre-ScanCount CandidatePairs — a PairSet
// probe per scanned pair and a NameLevel per distinct record pair —
// kept verbatim as the oracle of the stamp-deduped, name-memoised scan.
func candidatePairsOld(d *bib.Dataset, cover *core.Cover) []SimilarPair {
	parsed := make([]similarity.Name, d.NumRefs())
	for i := range d.Refs {
		parsed[i] = similarity.ParseName(d.Refs[i].Name)
	}
	seen := core.NewPairSet()
	var out []SimilarPair
	for _, set := range cover.Sets {
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				p := core.MakePair(set[i], set[j])
				if seen.Has(p) {
					continue
				}
				seen.Add(p)
				if lvl := similarity.NameLevel(parsed[p.A], parsed[p.B]); lvl > similarity.LevelNone {
					out = append(out, SimilarPair{Pair: p, Level: lvl})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pair.A != out[j].Pair.A {
			return out[i].Pair.A < out[j].Pair.A
		}
		return out[i].Pair.B < out[j].Pair.B
	})
	return out
}

// coverOld is the reference total cover, independent of the Index:
// canopiesOld, then totality patching and the uncached aligned expansion
// as BuildCover applies them.
func coverOld(d *bib.Dataset, cfg Config) *core.Cover {
	canopies := canopiesOld(datasetNames(d), cfg)
	sets := GreedyTotalCover(canopies, d.Coauthor())
	sets = alignedExpandOld(newNameLevels(), d, canopies, sets, cfg.MaxAligned)
	return core.NewCover(d.NumRefs(), sets)
}

// alignedExpandOld is the aligned expansion before it kept per-canopy
// addition lists for reuse, kept verbatim: every call re-walks every
// pair source's coauthor products.
func alignedExpandOld(levels *nameLevels, d *bib.Dataset, pairSets, sets [][]core.EntityID, maxAligned int) [][]core.EntityID {
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

func datasetNames(d *bib.Dataset) []string {
	names := make([]string, d.NumRefs())
	for i := range d.Refs {
		names[i] = d.Refs[i].Name
	}
	return names
}

// TestScorerMatchesOracles pins the ScanCount scorer and the stamp-deduped
// CandidatePairs to the verbatim old algorithms on the three seed
// corpora: identical canopies, covers and candidate pairs.
func TestScorerMatchesOracles(t *testing.T) {
	people, err := bib.DatasetFromRecords("people-like", datagen.MustGeneratePeople(datagen.PeopleLike(0.25, 42)))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*bib.Dataset{
		datagen.MustGenerate(datagen.HEPTHLike(0.25, 42)),
		datagen.MustGenerate(datagen.DBLPLike(0.25, 42)),
		people,
	} {
		cfg := DefaultConfig()
		if got, want := Canopies(datasetNames(d), cfg), canopiesOld(datasetNames(d), cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: canopies differ from the old algorithm", d.Name)
		}
		cover := BuildCover(d, cfg)
		if !coversEqual(cover, coverOld(d, cfg)) {
			t.Fatalf("%s: cover differs from the old algorithm's", d.Name)
		}
		got, want := CandidatePairs(d, cover), candidatePairsOld(d, cover)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d candidate pairs, the old scan finds %d (or they differ)", d.Name, len(got), len(want))
		}
	}
}

// oracleConfigs put the thresholds exactly on Jaccard values short
// names reach over bigram sets: 2/4 ("abcd" vs "abce"), 3/4 ("abcd" vs
// "abcde") and 2/5 ("abc" vs "abcdef"), so the Loose/Tight comparisons
// and the length filter are exercised at equality.
var oracleConfigs = []Config{
	DefaultConfig(),
	{Loose: 0.5, Tight: 0.75, Q: 2, MaxAligned: 1},
	{Loose: 0.4, Tight: 0.5, Q: 2, MaxAligned: 2},
	{Loose: 0.42, Tight: 0.85, Q: 3, MaxAligned: 1},
}

// FuzzScorerMatchesOracles compares the scorer and CandidatePairs with
// the old algorithms on arbitrary name lists: empty names, names
// shorter than Q, duplicates, and similarities exactly on Loose/Tight.
func FuzzScorerMatchesOracles(f *testing.F) {
	f.Add([]byte("abcd\x00abce\x00abcde\x00abc\x00abcdef\x00ab\x00abcd"), uint16(1))
	f.Add([]byte("\x00.\x00a\x00b\x00a\x00ab\x00.\x00 - "), uint16(2))
	f.Add([]byte("j smith\x00j smith\x00john smith\x00jon smith\x00j. smith\x00smith"), uint16(0))
	f.Add([]byte("v rastogi\x00vibhor rastogi\x00n dalvi\x00nilesh dalvi\x00rastogi v"), uint16(3))
	f.Fuzz(func(t *testing.T, raw []byte, groups uint16) {
		names := strings.Split(string(raw), "\x00")
		if len(names) > 48 {
			names = names[:48]
		}
		for _, cfg := range oracleConfigs {
			if got, want := Canopies(names, cfg), canopiesOld(names, cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %+v: canopies %v, old algorithm %v", cfg, got, want)
			}
		}
		recs := fuzzRecords(raw, groups)
		if len(recs) == 0 {
			return
		}
		d, err := bib.DatasetFromRecords("fuzz", recs)
		if err != nil {
			t.Skip("records rejected by dataset synthesis")
		}
		for _, cfg := range oracleConfigs {
			cover := BuildCover(d, cfg)
			if !coversEqual(cover, coverOld(d, cfg)) {
				t.Fatalf("cfg %+v: cover %v, old algorithm %v", cfg, cover.Sets, coverOld(d, cfg).Sets)
			}
			if got, want := CandidatePairs(d, cover), candidatePairsOld(d, cover); !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %+v: candidate pairs %v, old scan %v", cfg, got, want)
			}
		}
	})
}
