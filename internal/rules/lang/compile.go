package lang

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/rules"
	"repro/internal/similarity"
)

// Semantic validation sentinels, matchable with errors.Is through the
// *CompileError wrapper. Match-clause problems reuse the rules package's
// own sentinels (rules.ErrUnknownLevel, rules.ErrDuplicateLevel,
// rules.ErrNegativeSupport) so callers handle hand-built and compiled
// programs uniformly.
var (
	// ErrNoFields marks a predicate in a program with no fields
	// declaration.
	ErrNoFields = errors.New("lang: field predicates require a fields declaration")
	// ErrUnknownField marks a predicate naming an undeclared field.
	ErrUnknownField = errors.New("lang: unknown field")
	// ErrDuplicateField marks a fields declaration naming a field twice.
	ErrDuplicateField = errors.New("lang: duplicate field")
	// ErrBadThreshold marks a similarity threshold outside [0, 1].
	ErrBadThreshold = errors.New("lang: similarity threshold out of range")
	// ErrDuplicateLevelClause marks two level clauses assigning the same
	// level.
	ErrDuplicateLevelClause = errors.New("lang: duplicate level clause")
)

// Plan is a compiled, validated program ready for grounding: the match
// clauses lowered to the engine's rule slice and the level clauses
// ordered strongest-first for candidate re-discretization.
type Plan struct {
	Prog     *Program
	Rules    []rules.Rule
	fieldIdx map[string]int
	levels   []levelCond // level clauses, strongest first
	seeds    []seedCond  // seed clauses, in declaration order
}

// pred is a Pred with its field resolved to the declaration index.
type pred struct {
	field int
	op    Op
	num   float64
}

// levelCond is a compiled level clause.
type levelCond struct {
	level similarity.Level
	cond  []pred
}

// seedCond is a compiled seed clause.
type seedCond struct {
	seed rules.Seed
	cond []pred
}

// Compile validates the parsed program and lowers it to a Plan. Errors
// are *CompileError values positioned at the offending clause and
// wrapping a typed sentinel.
func Compile(p *Program) (*Plan, error) {
	pl := &Plan{Prog: p, fieldIdx: make(map[string]int, len(p.Fields))}
	for i, f := range p.Fields {
		if _, dup := pl.fieldIdx[f.Name]; dup {
			return nil, &CompileError{f.Pos, fmt.Errorf("%w: %q declared twice", ErrDuplicateField, f.Name)}
		}
		pl.fieldIdx[f.Name] = i
	}
	seenLevel := map[int]bool{}
	for _, lc := range p.Levels {
		if lc.Level < int(similarity.LevelWeak) || lc.Level > int(similarity.LevelStrong) {
			return nil, &CompileError{lc.Pos, fmt.Errorf("%w: level clause for level %d, want 1..3", rules.ErrUnknownLevel, lc.Level)}
		}
		if seenLevel[lc.Level] {
			return nil, &CompileError{lc.Pos, fmt.Errorf("%w: level %d assigned twice", ErrDuplicateLevelClause, lc.Level)}
		}
		seenLevel[lc.Level] = true
		if err := pl.checkCond(lc.Cond); err != nil {
			return nil, err
		}
	}
	seenMatch := map[int]bool{}
	for _, mc := range p.Matches {
		if mc.Level < int(similarity.LevelWeak) || mc.Level > int(similarity.LevelStrong) {
			return nil, &CompileError{mc.Pos, fmt.Errorf("%w: match clause for level %d, want 1..3", rules.ErrUnknownLevel, mc.Level)}
		}
		if seenMatch[mc.Level] {
			return nil, &CompileError{mc.Pos, fmt.Errorf("%w: two match clauses for level %d", rules.ErrDuplicateLevel, mc.Level)}
		}
		seenMatch[mc.Level] = true
		if mc.Cooccur < 0 {
			return nil, &CompileError{mc.Pos, fmt.Errorf("%w: cooccur >= %d", rules.ErrNegativeSupport, mc.Cooccur)}
		}
		pl.Rules = append(pl.Rules, rules.Rule{
			Level:              similarity.Level(mc.Level),
			MinCoauthorMatches: mc.Cooccur,
		})
	}
	for _, sc := range p.Seeds {
		if err := pl.checkCond(sc.Cond); err != nil {
			return nil, err
		}
	}
	// Belt and braces: the lowered rules must satisfy the engine's own
	// validation (the per-clause checks above are its positioned mirror).
	if err := rules.Validate(pl.Rules); err != nil {
		return nil, err
	}
	for _, lc := range p.Levels {
		pl.levels = append(pl.levels, levelCond{similarity.Level(lc.Level), pl.resolve(lc.Cond)})
	}
	sort.Slice(pl.levels, func(i, j int) bool { return pl.levels[i].level > pl.levels[j].level })
	for _, sc := range p.Seeds {
		seed := rules.SeedEqual
		if sc.Negated {
			seed = rules.SeedDistinct
		}
		pl.seeds = append(pl.seeds, seedCond{seed, pl.resolve(sc.Cond)})
	}
	return pl, nil
}

// CompileSource parses and compiles in one step.
func CompileSource(src string) (*Plan, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(p)
}

func (pl *Plan) checkCond(cond []Pred) error {
	for _, pr := range cond {
		if len(pl.Prog.Fields) == 0 {
			return &CompileError{pr.Pos, fmt.Errorf("%w (predicate on %q)", ErrNoFields, pr.Field)}
		}
		if _, ok := pl.fieldIdx[pr.Field]; !ok {
			return &CompileError{pr.Pos, fmt.Errorf("%w: %q (declared: %v)", ErrUnknownField, pr.Field, fieldNames(pl.Prog.Fields))}
		}
		switch pr.Op {
		case OpJaro, OpQGram:
			if pr.Num < 0 || pr.Num > 1 {
				return &CompileError{pr.Pos, fmt.Errorf("%w: %s >= %s, want a value in [0, 1]", ErrBadThreshold, pr.Op, formatNum(pr.Num))}
			}
		}
	}
	return nil
}

func fieldNames(fs []FieldDecl) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

// resolve compiles a checked conjunction, looking each field up once.
func (pl *Plan) resolve(cond []Pred) []pred {
	out := make([]pred, len(cond))
	for i, pr := range cond {
		out[i] = pred{field: pl.fieldIdx[pr.Field], op: pr.Op, num: pr.Num}
	}
	return out
}

// row is one record's declared fields, split from its composite key:
// norm holds each field normalised (similarity.NormalizeField), raw the
// trimmed field as written. Fields past the end of a short key are
// empty (missing data, never evidence).
type row struct{ norm, raw []string }

// newRow splits and normalises a composite key into nf fields.
func newRow(key string, nf int) row {
	buf := make([]string, 2*nf)
	r := row{norm: buf[:nf:nf], raw: buf[nf:]}
	fs := similarity.SplitFields(key)
	for i := range min(nf, len(fs)) {
		r.raw[i] = fs[i]
		r.norm[i] = similarity.NormalizeField(fs[i])
	}
	return r
}

// eval applies the predicate to the field of both rows: the string
// comparisons of internal/similarity on the normalised values, and
// absdiff on the raw ones.
func (pr pred) eval(a, b row) bool {
	na, nb := a.norm[pr.field], b.norm[pr.field]
	switch pr.op {
	case OpEqual:
		return similarity.NormalEqual(na, nb)
	case OpDiffer:
		return similarity.NormalDiffer(na, nb)
	case OpJaro:
		return similarity.JaroWinkler(na, nb) >= pr.num
	case OpQGram:
		return similarity.QGramJaccard(na, nb, similarity.FieldQ) >= pr.num
	case OpLev:
		return similarity.Levenshtein(na, nb) <= int(pr.num)
	case OpAbsDiff:
		d, ok := similarity.AbsDiff(a.raw[pr.field], b.raw[pr.field])
		return ok && d <= pr.num
	}
	return false
}

// holds evaluates a conjunction over two rows.
func holds(cond []pred, a, b row) bool {
	for _, pr := range cond {
		if !pr.eval(a, b) {
			return false
		}
	}
	return true
}

// levelOfRows assigns the highest declared level whose condition holds,
// or LevelNone when none does.
func (pl *Plan) levelOfRows(a, b row) similarity.Level {
	for _, lc := range pl.levels {
		if holds(lc.cond, a, b) {
			return lc.level
		}
	}
	return similarity.LevelNone
}

// seedOfRows returns the seed flags of every seed clause that holds.
func (pl *Plan) seedOfRows(a, b row) rules.Seed {
	var seed rules.Seed
	for _, sc := range pl.seeds {
		if holds(sc.cond, a, b) {
			seed |= sc.seed
		}
	}
	return seed
}

// LevelOf discretizes the similarity of two composite record keys with
// the program's level clauses. It is only meaningful for programs that
// declare level clauses; without any it returns LevelNone for everything.
func (pl *Plan) LevelOf(keyA, keyB string) similarity.Level {
	nf := len(pl.Prog.Fields)
	return pl.levelOfRows(newRow(keyA, nf), newRow(keyB, nf))
}

// Relevels reports whether the plan re-discretizes candidate levels
// (i.e. the program declares level clauses).
func (pl *Plan) Relevels() bool { return len(pl.levels) > 0 }

// Seeded reports whether the plan injects hard evidence seeds.
func (pl *Plan) Seeded() bool { return len(pl.seeds) > 0 }
