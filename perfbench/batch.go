package main

import (
	"context"
	"fmt"
	"time"

	cem "repro"
	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/mln"
	"repro/internal/rules"
	"repro/match"
)

// datasetName is the name Pipeline.Run gives the synthesized dataset.
const datasetName = "records"

// corpus is a batch workload's input and its serial reference match
// set.
type corpus struct {
	records []cem.Record
	raw     []bib.Record
	ref     []match.PairKey
}

type batchInput struct {
	corpus *corpus
	pipe   *cem.Pipeline
}

// newBatchPipeline configures the measured pipeline: the workload's
// scheme with the MLN matcher, blocking on one shard per CPU and
// neighbourhoods evaluated by one worker per CPU.
func newBatchPipeline(w workload, workers int) (*cem.Pipeline, error) {
	return cem.NewPipeline(
		cem.WithMatcher(cem.MatcherMLN),
		cem.WithScheme(w.scheme),
		cem.WithShards(workers),
		cem.WithRunnerOptions(cem.WithParallelism(workers)),
	)
}

// buildBatch is the timed set-up of a batch workload: generate the
// corpus and construct the pipeline.
func buildBatch(w workload, seed int64, workers int) func(context.Context) (*batchInput, error) {
	return func(context.Context) (*batchInput, error) {
		recs, err := generate(w, seed)
		if err != nil {
			return nil, err
		}
		pipe, err := newBatchPipeline(w, workers)
		return &batchInput{corpus: &corpus{records: recs, raw: toBib(recs)}, pipe: pipe}, err
	}
}

// runBatch measures a batch workload: set-up, a serial reference
// (untimed), then Pipeline.Run until the window closes — or, traced,
// untraced Runs alternating with the recomposed traced pipeline.
func runBatch(ctx context.Context, w workload, cfg runConfig, rep *report) error {
	setups, in, err := measureSetup(ctx, buildBatch(w, cfg.seed, cfg.workers), nil)
	if err != nil {
		return err
	}
	rep.setup = setups
	c := in.corpus
	serial, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(w.scheme), cem.WithShards(1))
	if err != nil {
		return err
	}
	res, err := serial.Run(ctx, c.records)
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	c.ref = res.Matches.SortedKeys()
	st := res.Experiment.Cover.ComputeStats()
	rep.env["corpus"] = fmt.Sprintf("records=%d neighbourhoods=%d max_neighbourhood=%d candidate_pairs=%d reference_matches=%d",
		len(c.records), st.Neighborhoods, st.MaxSize, len(res.Experiment.Candidates), len(c.ref))
	if cfg.trace {
		return traceBatch(ctx, w, cfg, in, rep)
	}

	const minRuns = 3
	var runs []sample
	var pf1, bf1 float64
	start := time.Now()
	for more(start, cfg.window, len(runs), minRuns) {
		settle()
		w := startWatch()
		res, err := in.pipe.Run(ctx, c.records)
		s := w.stop()
		var got match.PairSet
		if err == nil {
			got = res.Matches
		}
		if !rep.ops.check(err, got, c.ref) {
			continue
		}
		runs = append(runs, s)
		if res.Report == nil || res.BCubed == nil {
			rep.problem("the corpus is unlabeled: no F1")
			continue
		}
		pf1, bf1 = res.Report.PRF.F1, res.BCubed.F1
	}
	rep.env["runs_wall_s"] = fmt.Sprintf("%.4f", walls(runs))
	rep.env["runs_cpu_s"] = fmt.Sprintf("%.4f", cpus(runs))
	rep.env["steal"] = describeSteal(runs)
	// A Run commits the whole corpus at once, so its commit latency is
	// the Run's. No window holds the 100 Runs a tail estimate needs, and
	// the p90 line says so.
	rep.opTimes("Run", runs, runs, len(c.records), "one Run commits the whole corpus")
	rep.quality(pf1, bf1, 1)
	return nil
}

// traceBatch alternates an untraced Run with the traced recomposition
// until the window closes and reports the traced Runs' per-layer
// medians.
func traceBatch(ctx context.Context, w workload, cfg runConfig, in *batchInput, rep *report) error {
	tr := newTracer()
	c := in.corpus
	layers := map[string][]float64{}
	var untraced, traced []float64
	start := time.Now()
	for len(traced) < 1 || time.Since(start) < cfg.window {
		settle()
		t0 := time.Now()
		res, err := in.pipe.Run(ctx, c.records)
		d := time.Since(t0)
		var plain match.PairSet
		if err == nil {
			plain = res.Matches
		}
		if rep.ops.check(err, plain, c.ref) {
			untraced = append(untraced, d.Seconds())
		}

		settle()
		op, err := tracedRun(ctx, tr, w, c, cfg.workers)
		var got match.PairSet
		if err == nil {
			got = op.matches
		}
		if !rep.ops.check(err, got, c.ref) {
			if len(traced) == 0 && rep.ops.failed >= 3 {
				break // every traced Run fails; the result says so
			}
			continue
		}
		if plain != nil && !plain.Equal(got) {
			rep.problem("traced match set differs from the untraced Run's")
		}
		if plain != nil && res.Report != nil && res.BCubed != nil &&
			(res.Report.PRF.F1 != op.pairwiseF1 || res.BCubed.F1 != op.bcubedF1) {
			rep.problem("traced scores differ from the untraced Run's")
		}
		if op.progress != op.evaluations {
			rep.problem("%d progress events for %d evaluations", op.progress, op.evaluations)
		}
		traced = append(traced, op.wall.Seconds())
		for name, v := range op.values {
			layers[name] = append(layers[name], v)
		}
	}
	layers["trace.overhead_pct"] = []float64{100 * (ratio(median(traced), median(untraced)) - 1)}
	return rep.finishTrace(tr, w, cfg, layers, len(traced))
}

// tracedOp is one traced recomposed Run.
type tracedOp struct {
	matches     match.PairSet
	wall        time.Duration
	progress    int
	evaluations int
	pairwiseF1  float64
	bcubedF1    float64
	values      map[string]float64
}

// tracedRun executes what Pipeline.Run executes — dataset synthesis,
// cover construction, candidate generation, grounding of the MLN and
// RULES matchers, the round engine and scoring — as separate calls into
// each layer, with a span around each, the timing backend in place of
// the pool backend, and the progress hook counting evaluations.
func tracedRun(ctx context.Context, tr *tracer, w workload, c *corpus, workers int) (*tracedOp, error) {
	opts := cem.DefaultOptions()
	counts := &coreCounts{}
	var (
		d      *bib.Dataset
		cover  *core.Cover
		sp     []canopy.SimilarPair
		cands  []match.Candidate
		truth  match.PairSet
		mlnM   *mln.Matcher
		res    *core.Result
		pw, b3 eval.PRF
	)
	root := tr.beginOp("pipeline.run")
	start := time.Now()
	err := steps(tr,
		step{"bib.dataset", func() (err error) {
			if d, err = bib.DatasetFromRecords(datasetName, c.raw); err != nil {
				return err
			}
			return d.Validate()
		}},
		step{"canopy.cover", func() (err error) {
			cover, err = canopy.BuildCoverContext(ctx, d, opts.Canopy, workers)
			return err
		}},
		step{"canopy.candidates", func() error {
			sp = canopy.CandidatePairs(d, cover)
			cands = make([]match.Candidate, len(sp))
			for i, s := range sp {
				cands[i] = match.Candidate{Pair: s.Pair, Level: s.Level}
			}
			return nil
		}},
		step{"eval.score", func() error {
			truth = match.NewPairSet()
			for p := range d.TruePairs() {
				truth.Add(match.MakePair(p[0], p[1]))
			}
			return nil
		}},
		step{"mln.ground", func() (err error) {
			mc := make([]mln.Candidate, len(cands))
			for i, c := range cands {
				mc[i] = mln.Candidate{Pair: c.Pair, Level: c.Level}
			}
			mlnM, err = mln.New(d, mc, opts.MLNWeights)
			return err
		}},
		step{"rules.ground", func() error {
			rc := make([]rules.Candidate, len(cands))
			for i, c := range cands {
				rc[i] = rules.Candidate{Pair: c.Pair, Level: c.Level}
			}
			_, err := rules.New(d, rc, opts.Rules)
			return err
		}},
		step{"core.run", func() (err error) {
			cfg := core.Config{Cover: cover, Matcher: mlnM, Relation: d.Coauthor(),
				Parallelism: workers, Progress: counts.observe}
			res, err = core.RunBackend(ctx, cfg, coreScheme(w.scheme),
				&timingBackend{workers: workers, tr: tr, counts: counts}, core.CheckpointConfig{})
			return err
		}},
		step{"eval.score", func() error {
			pw = eval.PrecisionRecall(res.Matches, truth)
			gold := make([]int32, d.NumRefs())
			for i := range d.Refs {
				gold[i] = d.Refs[i].True
			}
			b3 = eval.BCubedFromMatches(res.Matches, gold)
			return nil
		}},
	)
	tr.end(root)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}

	total, self, _ := tr.opTimes(tr.opOf(root))
	st := res.Stats
	v := map[string]float64{
		"bib.dataset_s":        total["bib.dataset"].Seconds(),
		"canopy.cover_s":       total["canopy.cover"].Seconds(),
		"canopy.candidates_s":  total["canopy.candidates"].Seconds(),
		"mln.ground_s":         total["mln.ground"].Seconds(),
		"rules.ground_s":       total["rules.ground"].Seconds(),
		"eval.score_s":         total["eval.score"].Seconds(),
		"core.run_s":           total["core.run"].Seconds(),
		"core.matcher_s":       st.MatcherTime.Seconds(),
		"trace.unattributed_s": self["pipeline.run"].Seconds(),
		"trace.wall_s":         wall.Seconds(),
	}
	addCoreValues(v, counts, workers, []core.RunStats{st})
	addBlockingValues(v, cover, cands, truth)
	return &tracedOp{matches: res.Matches, wall: wall, progress: counts.progress, evaluations: st.Evaluations,
		pairwiseF1: pw.F1, bcubedF1: b3.F1, values: v}, nil
}

// step is one layer call of the traced recomposition.
type step struct {
	name string
	call func() error
}

// steps runs each call inside a span named after it, stopping at the
// first error. Spans are closed on every path.
func steps(tr *tracer, ss ...step) error {
	for _, s := range ss {
		id := tr.begin(s.name)
		err := s.call()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// coreScheme maps a public scheme to the round engine's name for it.
func coreScheme(s cem.Scheme) string {
	switch s {
	case cem.SchemeNoMP:
		return "NO-MP"
	case cem.SchemeMMP:
		return "MMP"
	}
	return "SMP"
}

// addCoreValues fills the round-engine metrics of one op from the
// timing backend's counts and the runs' statistics.
func addCoreValues(v map[string]float64, c *coreCounts, workers int, runs []core.RunStats) {
	var calls, evals, skips, msgs, maximal, promoted int
	var hits, lookups int64
	for _, st := range runs {
		calls += st.MatcherCalls
		evals += st.Evaluations
		skips += st.Skips
		msgs += st.MessagesSent
		maximal += st.MaximalMessages
		promoted += st.PromotedSets
		hits += st.Cache.Hits
		lookups += st.Cache.Lookups()
	}
	v["core.map_s"] = c.mapBusy.Seconds()
	v["core.map_wall_s"] = c.mapWall.Seconds()
	v["core.map_efficiency"] = ratio(c.mapBusy.Seconds(), c.mapWall.Seconds()*float64(workers))
	v["core.reduce_s"] = c.reduce.Seconds()
	v["core.rounds"] = float64(c.rounds)
	v["core.matcher_calls"] = float64(calls)
	v["core.evaluations"] = float64(evals)
	v["core.skips"] = float64(skips)
	v["core.messages_sent"] = float64(msgs)
	v["core.maximal_messages"] = float64(maximal)
	v["core.promoted_sets"] = float64(promoted)
	v["core.productive_eval_ratio"] = ratio(float64(c.productive), float64(c.progress))
	v["mln.memo_hit_rate"] = ratio(float64(hits), float64(lookups))
}

// addBlockingValues fills the cover and candidate metrics: exact sizes,
// and how much of the truth the candidates keep (recall) and how much
// of the candidates is true (precision).
func addBlockingValues(v map[string]float64, cover *core.Cover, cands []match.Candidate, truth match.PairSet) {
	entries := 0
	for _, s := range cover.Sets {
		entries += len(s)
	}
	kept := 0
	for _, c := range cands {
		if truth.Has(c.Pair) {
			kept++
		}
	}
	v["canopy.neighborhoods"] = float64(cover.Len())
	v["canopy.max_neighborhood"] = float64(cover.MaxSize())
	v["canopy.cover_entries"] = float64(entries)
	v["canopy.candidate_pairs"] = float64(len(cands))
	v["canopy.true_pair_recall"] = ratio(float64(kept), float64(truth.Len()))
	v["canopy.candidate_precision"] = ratio(float64(kept), float64(len(cands)))
}
