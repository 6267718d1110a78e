package lang

import (
	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/similarity"
)

// NewMatcher grounds the plan over a dataset and the blocking stage's
// candidate pairs, returning a core.Matcher — always a *rules.Matcher.
//
// A plain program — no level clauses, no seeds — compiles to exactly
// rules.New(d, cands, plan.Rules): byte-for-byte the matcher a
// handwritten []rules.Rule program would produce. Level clauses replace
// each candidate's blocking-assigned level with the program's own
// discretization over the record's typed fields; seed clauses flag
// candidates as hard equalities (rules.SeedEqual) or inequalities
// (rules.SeedDistinct), which the ground engine treats as members of the
// V+ and V− slots of every Match call (see rules/hardseed_doc.go — the
// seeds keep the matcher monotone and idempotent, so the SMP-equals-FULL
// property of the monotone fragment survives seeding). Seeds are
// evaluated over candidate pairs only, preserving the candidate-closure
// contract: output ⊆ candidates ∪ echoed evidence.
func (pl *Plan) NewMatcher(d *bib.Dataset, cands []rules.Candidate) (core.Matcher, error) {
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

	work := cands
	if pl.Relevels() || pl.Seeded() {
		work = make([]rules.Candidate, len(cands))
		for i, c := range cands {
			work[i] = c
			fa, fb := fieldsOf(c.Pair.A), fieldsOf(c.Pair.B)
			if pl.Relevels() {
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
	m, err := rules.New(d, work, pl.Rules)
	if err != nil {
		return nil, err
	}
	return m, nil
}
