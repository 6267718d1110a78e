package lang

import (
	"repro/internal/bib"
	"repro/internal/core"
	"repro/internal/rules"
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
	m, err := rules.New(d, pl.ground(d, cands), pl.Rules)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// ground applies the level and seed clauses to the candidates, returning
// cands itself when the plan has neither. Each record's key is split and
// normalised once, on its first candidate, not once per predicate.
func (pl *Plan) ground(d *bib.Dataset, cands []rules.Candidate) []rules.Candidate {
	if !pl.Relevels() && !pl.Seeded() {
		return cands
	}
	nf := len(pl.Prog.Fields)
	rows := make([]row, len(d.Refs))
	empty := newRow("", nf)
	rowOf := func(e core.EntityID) row {
		if e < 0 || int(e) >= len(rows) {
			return empty
		}
		if rows[e].norm == nil {
			rows[e] = newRow(d.Refs[e].Name, nf)
		}
		return rows[e]
	}
	work := make([]rules.Candidate, len(cands))
	for i, c := range cands {
		work[i] = c
		a, b := rowOf(c.Pair.A), rowOf(c.Pair.B)
		if pl.Relevels() {
			work[i].Level = pl.levelOfRows(a, b)
		}
		work[i].Seed |= pl.seedOfRows(a, b)
	}
	return work
}
