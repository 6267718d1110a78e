package rules

// Hard seeds — Dedupalog's hard rule "equals(x, y) ⇐ AuthorEQ(x, y)" of
// Appendix A and its negated form — are part of the ground engine. An
// externally known equality or inequality predicate is exactly the V+ or
// V− evidence slot of Definition 1, so a candidate flagged SeedEqual or
// SeedDistinct (Candidate.Seed, evaluated once when the program is
// grounded — the rules language's `equal when` / `distinct when`
// clauses) behaves on every Match call as if the caller had passed it in
// pos or neg: a seeded equality is output (when in scope) and counts as
// coauthor support; a seeded inequality is never derived or output. A
// negative seed wins over a positive one and over caller V+, but a pair
// in V+ still counts as support. Match reads the seeds off per-candidate
// flags instead of uniting them into the caller's evidence, so seeding
// costs a call nothing beyond its neighborhood; the matcher stays
// monotone and idempotent, and every scheme treats seeded equalities as
// unretractable matches. Run-level hard evidence that is not tied to a
// program is still supplied as core.Config's initial evidence or its
// Negative slot.
