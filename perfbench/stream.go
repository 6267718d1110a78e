package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	cem "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/match"
)

// tracedSuffix names the rules program's timed registration: the
// traced streams ground the matcher through a factory wrapped in a
// span, the untraced ones through the plain registration.
const tracedSuffix = "-traced"

// rig is one stream's committer, configured as `emserve -store disk`
// configures it — journal, disk store and checkpoint trail under a
// fresh state directory — with blocking shards and matcher workers set
// to the CPU count.
type rig struct {
	dir       string
	disk      match.Store
	committer *serve.Committer
}

// streamProbe is what a traced stream installs: a tracer, the timing
// backend's counts and the timing store wrapper.
type streamProbe struct {
	tr     *tracer
	counts *coreCounts
	store  *timingStore
}

// openRig builds a committer over a new, empty state directory under
// out.
func openRig(ctx context.Context, out, matcher string, workers int, probe *streamProbe) (*rig, error) {
	dir, err := os.MkdirTemp(out, "state-")
	if err != nil {
		return nil, err
	}
	disk, err := cem.OpenStore("disk", cem.WithStoreDir(filepath.Join(dir, "store")))
	if err != nil {
		return nil, fmt.Errorf("opening disk store: %w", err)
	}
	r := &rig{dir: dir, disk: disk}
	st := disk
	metrics := serve.NewMetrics()
	progress := metrics.ProgressObserver()
	var extra []cem.RunnerOption
	if probe != nil {
		probe.store = &timingStore{Store: disk, tr: probe.tr}
		st = probe.store
		observe := progress
		progress = func(ev match.ProgressEvent) {
			probe.counts.observe(ev)
			observe(ev)
		}
		extra = append(extra, cem.WithBackend(&timingBackend{workers: workers, tr: probe.tr, counts: probe.counts}))
	}
	ropts := append([]cem.RunnerOption{
		cem.WithProgress(progress),
		cem.WithParallelism(workers),
		cem.WithCheckpointDir(filepath.Join(dir, "checkpoint")),
		cem.WithOpenedStore(st),
	}, extra...)
	pipe, err := cem.NewPipeline(
		cem.WithDatasetName("emserve"),
		cem.WithMatcher(matcher),
		cem.WithScheme(cem.SchemeSMP),
		cem.WithShards(workers),
		cem.WithRunnerOptions(ropts...),
	)
	if err != nil {
		r.close()
		return nil, err
	}
	r.committer, err = serve.NewCommitter(pipe,
		serve.WithMetrics(metrics),
		serve.WithJournal(filepath.Join(dir, "journal")),
		serve.WithStore(st))
	if err == nil {
		_, err = r.committer.Recover(ctx, true)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close releases the store and deletes the state directory.
func (r *rig) close() error {
	err := r.disk.Close()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

// streamSetup is the timed set-up of the stream: the corpus, the
// compiled rules program and one committer.
type streamSetup struct {
	records []cem.Record
	prog    *cem.RuleProgram
	rig     *rig
}

// runStream measures people-stream: set-up, a cold Pipeline.Run over
// the corpus in arrival order as the reference (untimed), then whole
// streams from empty state dirs until the window closes and enough
// commits are in for the p90 — or, traced, untraced and traced streams
// in turn.
func runStream(ctx context.Context, w workload, cfg runConfig, rep *report) error {
	build := func(ctx context.Context) (streamSetup, error) {
		recs, err := generate(w, cfg.seed)
		if err != nil {
			return streamSetup{}, err
		}
		src, err := os.ReadFile(peopleRules)
		if err != nil {
			return streamSetup{}, fmt.Errorf("reading the rules program: %w", err)
		}
		prog, err := cem.CompileRuleProgram(string(src))
		if err != nil {
			return streamSetup{}, err
		}
		r, err := openRig(ctx, cfg.out, prog.Name(), cfg.workers, nil)
		return streamSetup{recs, prog, r}, err
	}
	var closeErr error
	setups, in, err := measureSetup(ctx, build, func(s streamSetup) {
		if err := s.rig.close(); err != nil && closeErr == nil {
			closeErr = err
		}
	})
	if err != nil {
		return err
	}
	if closeErr != nil {
		return closeErr
	}
	rep.setup = setups
	if err := cem.RegisterRuleProgram(in.prog); err != nil {
		return err
	}

	cold, err := cem.NewPipeline(cem.WithMatcher(in.prog.Name()), cem.WithScheme(w.scheme))
	if err != nil {
		return err
	}
	res, err := cold.Run(ctx, in.records)
	if err != nil {
		return fmt.Errorf("cold reference: %w", err)
	}
	ref := res.Matches.SortedKeys()
	var batches [][]cem.Record
	for i := 0; i < len(in.records); i += streamBatch {
		batches = append(batches, in.records[i:min(i+streamBatch, len(in.records))])
	}
	st := res.Experiment.Cover.ComputeStats()
	rep.env["corpus"] = fmt.Sprintf("records=%d batches=%d neighbourhoods=%d max_neighbourhood=%d candidate_pairs=%d reference_matches=%d",
		len(in.records), len(batches), st.Neighborhoods, st.MaxSize, len(res.Experiment.Candidates), len(ref))
	rep.env["matcher"] = in.prog.Name() + " (" + peopleRules + ")"

	if cfg.trace {
		return traceStream(ctx, w, cfg, in.prog, batches, ref, rep)
	}
	// Enough streams for the p90 to have minBeyond commits above it.
	minStreams := max(2, (samplesFor(0.9)+len(batches)-1)/len(batches))
	var streams, commits []sample
	var last *cem.PipelineResult
	start := time.Now()
	for more(start, cfg.window, len(streams), minStreams) {
		s, err := stream(ctx, cfg, in.prog.Name(), batches, ref, rep, nil)
		if err != nil {
			return err
		}
		streams = append(streams, s.total)
		commits = append(commits, s.commits...)
		if s.final != nil {
			last = s.final
		}
	}
	rep.env["streams_wall_s"] = fmt.Sprintf("%.4f", walls(streams))
	rep.env["streams_cpu_s"] = fmt.Sprintf("%.4f", cpus(streams))
	rep.env["steal"] = describeSteal(streams)
	rep.opTimes("stream", streams, commits, len(in.records), fmt.Sprintf("%d-record batches", streamBatch))
	if last == nil || last.Report == nil || last.BCubed == nil {
		rep.problem("no scored final state")
		rep.quality(0, 0, 0)
		return nil
	}
	rep.quality(last.Report.PRF.F1, last.BCubed.F1, 1)
	return nil
}

// streamOp is one whole stream.
type streamOp struct {
	total   sample
	commits []sample
	final   *cem.PipelineResult
	values  map[string]float64 // per-layer figures, traced streams only
}

// stream sends every batch through a fresh committer, one Apply at a
// time, and checks the final committed match set against ref. Each
// commit is an operation; the final check belongs to the last one.
func stream(ctx context.Context, cfg runConfig, matcher string, batches [][]cem.Record, ref []match.PairKey, rep *report, probe *streamProbe) (*streamOp, error) {
	r, err := openRig(ctx, cfg.out, matcher, cfg.workers, probe)
	if err != nil {
		return nil, err
	}
	settle()
	op := &streamOp{values: map[string]float64{}}
	var stats []core.RunStats
	warm := 0
	whole := startWatch()
	for i, b := range batches {
		root := probe.tracer().beginOp("serve.commit")
		t0 := time.Now()
		w := startWatch()
		state, err := r.committer.Apply(ctx, b)
		s := w.stop()
		d := time.Since(t0)
		if err == nil && probe != nil {
			probe.tr.readOff("serve.update_blocking", root, t0, state.Result.BlockingTime)
		}
		probe.tracer().end(root)
		if i < len(batches)-1 {
			rep.ops.attempted++
			if err != nil {
				rep.ops.failed++
				continue
			}
		} else {
			var got match.PairSet
			if err == nil {
				got = state.Result.Matches
			}
			if !rep.ops.check(err, got, ref) {
				continue
			}
		}
		op.commits = append(op.commits, s)
		res := state.Result
		stats = append(stats, res.Stats)
		if res.WarmStarted {
			warm++
		}
		if probe != nil {
			probe.account(op.values, root, d, res)
		}
	}
	op.total = whole.stop()
	op.final = r.committer.Snapshot().Result

	if probe != nil {
		v := op.values
		addCoreValues(v, probe.counts, cfg.workers, stats)
		if op.final != nil {
			addBlockingValues(v, op.final.Experiment.Cover, op.final.Experiment.Candidates, op.final.Experiment.Truth)
		}
		v["serve.warm_ratio"] = ratio(float64(warm), float64(len(stats)))
		v["store.blob_bytes"] = float64(probe.store.blobBytes)
		v["store.dir_bytes"] = float64(dirBytes(filepath.Join(r.dir, "store")))
		v["serve.journal_bytes"] = float64(dirBytes(filepath.Join(r.dir, "journal")))
		v["trace.unattributed_s"] = v["serve.other_s"]
		v["trace.wall_s"] = op.total.wall
		evals := 0
		for _, s := range stats {
			evals += s.Evaluations
		}
		if probe.counts.progress != evals {
			rep.problem("%d progress events for %d evaluations", probe.counts.progress, evals)
		}
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	return op, nil
}

func (p *streamProbe) tracer() *tracer {
	if p == nil {
		return nil
	}
	return p.tr
}

// account adds one traced commit to the stream's per-layer figures.
// The pipeline reports its own blocking and matching durations; the
// rules-language grounding and every store call are spans. What remains
// of the commit — journal, per-batch set-up (candidate pairs, grounding
// of the built-in matchers), scoring, snapshot encoding and publication
// — is serve.other_s.
func (p *streamProbe) account(v map[string]float64, root int, commit time.Duration, res *cem.PipelineResult) {
	total, _, top := p.tr.opTimes(p.tr.opOf(root))
	afterMatching := time.Duration(0) // store calls of the committer's state snapshot
	storeOther := time.Duration(0)
	for name, d := range total {
		if strings.HasPrefix(name, "store.") && name != "store.put_evidence" && name != "store.save_blob" {
			storeOther += d
		}
	}
	for name, d := range top {
		if strings.HasPrefix(name, "store.") && !evidenceSpan(name) {
			afterMatching += d
		}
	}
	v["serve.update_blocking_s"] += res.BlockingTime.Seconds()
	v["core.run_s"] += res.MatchingTime.Seconds()
	v["core.matcher_s"] += res.Stats.MatcherTime.Seconds()
	v["rules.ground_s"] += total["rules.ground"].Seconds()
	v["store.put_evidence_s"] += total["store.put_evidence"].Seconds()
	v["store.save_blob_s"] += total["store.save_blob"].Seconds()
	v["store.other_s"] += storeOther.Seconds()
	v["serve.other_s"] += (commit - res.BlockingTime - res.MatchingTime - total["rules.ground"] - afterMatching).Seconds()
}

// traceStream alternates untraced and traced streams until the window
// closes and reports the traced streams' per-layer medians.
func traceStream(ctx context.Context, w workload, cfg runConfig, prog *cem.RuleProgram, batches [][]cem.Record, ref []match.PairKey, rep *report) error {
	tr := newTracer()
	factory := prog.Factory()
	cem.RegisterMatcher(prog.Name()+tracedSuffix, func(mc cem.MatcherContext) (match.Matcher, error) {
		id := tr.begin("rules.ground")
		defer tr.end(id)
		return factory(mc)
	})
	var untraced, traced []float64
	layers := map[string][]float64{}
	start := time.Now()
	for len(traced) < 1 || time.Since(start) < cfg.window {
		plain, err := stream(ctx, cfg, prog.Name(), batches, ref, rep, nil)
		if err != nil {
			return err
		}
		untraced = append(untraced, plain.total.wall)
		probe := &streamProbe{tr: tr, counts: &coreCounts{}}
		op, err := stream(ctx, cfg, prog.Name()+tracedSuffix, batches, ref, rep, probe)
		if err != nil {
			return err
		}
		if plain.final != nil && op.final != nil &&
			!plain.final.Matches.Equal(op.final.Matches) {
			rep.problem("traced stream's final match set differs from the untraced stream's")
		}
		traced = append(traced, op.total.wall)
		for name, v := range op.values {
			layers[name] = append(layers[name], v)
		}
	}
	layers["trace.overhead_pct"] = []float64{100 * (ratio(median(traced), median(untraced)) - 1)}
	return rep.finishTrace(tr, w, cfg, layers, len(traced))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // a missing directory holds nothing
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
