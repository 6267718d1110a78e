package lang

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/rules"
	"repro/internal/similarity"
)

// oldPlan carries the pre-optimisation grounding state: the field index
// map and the level clauses strongest-first, looked up per predicate
// call. Its methods below are the per-pair evaluation as it was before
// fields were normalised once per record, kept verbatim as the oracle of
// Plan.ground.
type oldPlan struct {
	Prog       *Program
	fieldIdx   map[string]int
	byStrength []LevelClause
}

func newOldPlan(p *Program) *oldPlan {
	pl := &oldPlan{Prog: p, fieldIdx: map[string]int{}}
	for i, f := range p.Fields {
		pl.fieldIdx[f.Name] = i
	}
	pl.byStrength = append([]LevelClause(nil), p.Levels...)
	sort.Slice(pl.byStrength, func(i, j int) bool {
		return pl.byStrength[i].Level > pl.byStrength[j].Level
	})
	return pl
}

// fieldVal returns the named field of a split composite key; fields past
// the end of a short key are empty (missing data, never evidence).
func (pl *oldPlan) fieldVal(fields []string, name string) string {
	idx := pl.fieldIdx[name]
	if idx >= len(fields) {
		return ""
	}
	return fields[idx]
}

func evalPred(pr Pred, a, b string) bool {
	switch pr.Op {
	case OpEqual:
		return similarity.FieldEqual(a, b)
	case OpDiffer:
		return similarity.FieldDiffer(a, b)
	case OpJaro:
		return similarity.FieldJaro(a, b) >= pr.Num
	case OpQGram:
		return similarity.FieldQGram(a, b) >= pr.Num
	case OpLev:
		return similarity.FieldLev(a, b) <= int(pr.Num)
	case OpAbsDiff:
		d, ok := similarity.AbsDiff(a, b)
		return ok && d <= pr.Num
	}
	return false
}

// holds evaluates a conjunction over two split composite keys.
func (pl *oldPlan) holds(cond []Pred, fa, fb []string) bool {
	for _, pr := range cond {
		if !evalPred(pr, pl.fieldVal(fa, pr.Field), pl.fieldVal(fb, pr.Field)) {
			return false
		}
	}
	return true
}

// levelOfFields assigns the highest declared level whose condition holds,
// or LevelNone when none does.
func (pl *oldPlan) levelOfFields(fa, fb []string) similarity.Level {
	for _, lc := range pl.byStrength {
		if pl.holds(lc.Cond, fa, fb) {
			return similarity.Level(lc.Level)
		}
	}
	return similarity.LevelNone
}

// ground is the candidate loop of the pre-optimisation NewMatcher.
func (pl *oldPlan) ground(d *bib.Dataset, cands []rules.Candidate) []rules.Candidate {
	fieldCache := make(map[core.EntityID][]string)
	fieldsOf := func(e core.EntityID) []string {
		if fs, ok := fieldCache[e]; ok {
			return fs
		}
		var fs []string
		if e >= 0 && int(e) < len(d.Refs) {
			fs = similarity.SplitFields(d.Refs[e].Name)
		}
		fieldCache[e] = fs
		return fs
	}
	relevels, seeded := len(pl.byStrength) > 0, len(pl.Prog.Seeds) > 0
	work := cands
	if relevels || seeded {
		work = make([]rules.Candidate, len(cands))
		for i, c := range cands {
			work[i] = c
			fa, fb := fieldsOf(c.Pair.A), fieldsOf(c.Pair.B)
			if relevels {
				work[i].Level = pl.levelOfFields(fa, fb)
			}
			for _, sc := range pl.Prog.Seeds {
				if pl.holds(sc.Cond, fa, fb) {
					if sc.Negated {
						work[i].Seed |= rules.SeedDistinct
					} else {
						work[i].Seed |= rules.SeedEqual
					}
				}
			}
		}
	}
	return work
}

// allOpsSrc exercises every operator, a field most keys lack (age) and
// both seed kinds.
const allOpsSrc = `program all-ops
fields name, street, zip, phone, age
level 3 when phone equal and age absdiff <= 1
level 2 when name jaro >= 0.85 and street qgram >= 0.5
level 1 when name lev <= 3 and zip equal
match level 3
match level 2 when cooccur >= 1
match level 1 when cooccur >= 2
equal when phone equal and zip equal
distinct when phone differ and age absdiff <= 0
distinct when name differ and zip differ
`

// groundingPlans returns the programs the oracle compares on.
func groundingPlans(t testing.TB) map[string]*Plan {
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "rules", "people.rules"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*Plan{}
	for name, s := range map[string]string{"people.rules": string(src), "peopleSrc": peopleSrc, "allOps": allOpsSrc} {
		pl, err := CompileSource(s)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = pl
	}
	return out
}

// checkGround asserts Plan.ground and the oracle agree on every
// candidate's Level and Seed.
func checkGround(t *testing.T, name string, pl *Plan, d *bib.Dataset, cands []rules.Candidate) {
	t.Helper()
	got := pl.ground(d, cands)
	want := newOldPlan(pl.Prog).ground(d, cands)
	if len(got) != len(want) {
		t.Fatalf("%s: %d grounded candidates, oracle %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			a, b := want[i].Pair.A, want[i].Pair.B
			t.Fatalf("%s: candidate %d (%q, %q) grounds to %+v, oracle %+v",
				name, i, d.Refs[a].Name, d.Refs[b].Name, got[i], want[i])
		}
	}
}

// TestGroundMatchesOldOnPeopleCover compares the grounding with the
// oracle on every People cover candidate, seeds preset on some of them.
func TestGroundMatchesOldOnPeopleCover(t *testing.T) {
	d, err := bib.DatasetFromRecords("people-like", datagen.MustGeneratePeople(datagen.PeopleLike(0.5, 42)))
	if err != nil {
		t.Fatal(err)
	}
	sp := canopy.CandidatePairs(d, canopy.BuildCover(d, canopy.DefaultConfig()))
	cands := make([]rules.Candidate, len(sp))
	for i, s := range sp {
		cands[i] = rules.Candidate{Pair: s.Pair, Level: s.Level, Seed: rules.Seed(i % 3)}
	}
	for name, pl := range groundingPlans(t) {
		checkGround(t, name, pl, d, cands)
	}
}

// mutateKey renders a composite key with the noise the normalisation
// must absorb or preserve: case, '.'/',', whitespace runs and tabs
// around and inside fields, emptied and dropped fields, non-ASCII.
func mutateKey(rng *rand.Rand, fields []string) string {
	fs := append([]string(nil), fields...)
	if rng.Intn(4) == 0 {
		fs = fs[:rng.Intn(len(fs)+1)]
	}
	noise := []string{" ", "  ", "\t", ".", ",", ". ", " ,", "É", "ß", " ", "İ", "\xff"}
	for i := range fs {
		switch rng.Intn(6) {
		case 0:
			fs[i] = strings.ToUpper(fs[i])
		case 1:
			fs[i] = ""
		case 2:
			at := rng.Intn(len(fs[i]) + 1)
			fs[i] = fs[i][:at] + noise[rng.Intn(len(noise))] + fs[i][at:]
		case 3:
			fs[i] = noise[rng.Intn(len(noise))] + fs[i] + noise[rng.Intn(len(noise))]
		}
	}
	return strings.Join(fs, "|")
}

// TestGroundMatchesOldOnNoisyKeys compares the grounding with the
// oracle on all pairs of randomly mutated composite keys.
func TestGroundMatchesOldOnNoisyKeys(t *testing.T) {
	base := [][]string{
		{"ann smith", "12 oak st", "94110", "555-0101", "41"},
		{"bob smith", "12 oak st", "94110", "555-0202", "40"},
		{"anne smyth", "12 oak street", "94110", "555-0101", "41.5"},
		{"carla jones", "9 elm ave", "90210", "555-0303", "x"},
	}
	rng := rand.New(rand.NewSource(1))
	var groups [][]string
	for g := 0; g < 12; g++ {
		var keys []string
		for k := 0; k < 4; k++ {
			keys = append(keys, mutateKey(rng, base[rng.Intn(len(base))]))
		}
		groups = append(groups, keys)
	}
	d := peopleDataset(groups)
	cands := allPairs(d, similarity.LevelWeak)
	// An out-of-range endpoint grounds as a record with no fields.
	cands = append(cands, rules.Candidate{Pair: core.Pair{A: 0, B: core.EntityID(d.NumRefs())}, Level: similarity.LevelWeak})
	for name, pl := range groundingPlans(t) {
		checkGround(t, name, pl, d, cands)
	}
}

// FuzzGroundMatchesOld compares the grounding with the oracle on two
// arbitrary composite keys.
func FuzzGroundMatchesOld(f *testing.F) {
	f.Add("Ann Smith | 12 Oak St. | 94110 | 555-0101 | 41", "ann  smith|12 oak st|94110|555-0101|40.5")
	f.Add("", "|||")
	f.Add("\tÉLAN,  x.|a", "élan x |A")
	f.Add("a b|1e3", "a b|1000")
	plans := groundingPlans(f)
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 256 || len(b) > 256 {
			return
		}
		d := peopleDataset([][]string{{a, b}})
		cands := []rules.Candidate{{Pair: core.Pair{A: 0, B: 1}, Level: similarity.LevelMedium}}
		for name, pl := range plans {
			checkGround(t, name, pl, d, cands)
		}
	})
}
