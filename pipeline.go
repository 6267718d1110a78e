package cem

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/bib"
	"repro/internal/canopy"
	"repro/match"
)

// Pipeline is the end-to-end ingestion→blocking→matching→evaluation
// path: raw records in, matches (and metrics, when gold labels are
// supplied) out. It synthesizes a dataset from the records, runs q-gram
// canopy blocking on a sharded worker pool (output identical to serial
// for every shard count), constructs the total cover with the paper's
// size/overlap bounds, executes the configured scheme with any
// registered matcher through the Runner, and scores the result.
//
// Build with NewPipeline; a Pipeline's configuration is immutable after
// construction and it is safe for concurrent Run/Update calls. The only
// mutable state is the cumulative Stats counters, which accumulate
// atomically across every completed run.
type Pipeline struct {
	name       string
	blocking   CanopyConfig
	maxNbr     int
	maxNbrSet  bool
	shards     int
	matcher    string
	scheme     Scheme
	runnerOpts []RunnerOption
	expOpts    []Option

	stats pipelineCounters
}

// PipelineStats is a point-in-time copy of a Pipeline's cumulative
// counters: every completed Run/Resume/Update on the pipeline adds to
// them, so a long-lived ingestion loop (or a serving process) can report
// warm-vs-cold ratios and total matcher work without threading per-call
// results around. Read with Pipeline.Stats; failed calls contribute
// nothing.
type PipelineStats struct {
	// Runs counts completed Run/Resume calls (cold full passes).
	Runs int64
	// Updates counts completed Update calls, split below by how the
	// matching stage executed: ColdStarts (nil prior — the stream's
	// first batch), WarmStarted (the incremental fast path), and
	// ForcedReruns (a non-additive delta or a foreign prior forced a
	// full cold re-run). The three always sum to Updates.
	Updates      int64
	ColdStarts   int64
	WarmStarted  int64
	ForcedReruns int64
	// MatcherCalls sums Matcher.Match invocations across every completed
	// run — the paper's primary cost metric, accumulated stream-wide.
	MatcherCalls int64
	// RecordsIngested sums the record counts handed to Run (all records)
	// and Update (the new batch only): the total stream length so far
	// when one pipeline owns the whole stream.
	RecordsIngested int64
	// CacheHits/CacheMisses/CacheInvalidations accumulate the per-run
	// verdict-memo reports (RunStats.Cache) across every completed run —
	// all zero when the configured matcher keeps no memo. Warm Updates
	// on a long-lived matcher are where hits concentrate: neighborhoods
	// re-activated by a delta whose relevant evidence did not change are
	// served from cache.
	CacheHits          int64
	CacheMisses        int64
	CacheInvalidations int64
	// Reassignments/RetriedSends/LateBatchesDropped accumulate the
	// per-run resilience counters (RunStats) across every completed run
	// — all zero unless the pipeline executes on a supervised
	// distributed backend (sharded-net). Nonzero values mean the stream
	// survived worker deaths or transport faults; the output is
	// unaffected by construction, so these measure degraded throughput,
	// not degraded answers.
	Reassignments      int64
	RetriedSends       int64
	LateBatchesDropped int64
}

// pipelineCounters is the internal atomic form of PipelineStats.
type pipelineCounters struct {
	runs, updates, coldStarts, warmStarted, forcedReruns atomic.Int64
	matcherCalls, recordsIngested                        atomic.Int64
	cacheHits, cacheMisses, cacheInvals                  atomic.Int64
	reassignments, retriedSends, lateDropped             atomic.Int64
}

// addRun folds one completed run's per-run reports (verdict memo,
// resilience) into the cumulative counters.
func (c *pipelineCounters) addRun(s *match.RunStats) {
	c.cacheHits.Add(s.Cache.Hits)
	c.cacheMisses.Add(s.Cache.Misses)
	c.cacheInvals.Add(s.Cache.Invalidations)
	c.reassignments.Add(int64(s.Reassignments))
	c.retriedSends.Add(int64(s.RetriedSends))
	c.lateDropped.Add(int64(s.LateBatchesDropped))
}

// Stats returns a snapshot of the pipeline's cumulative counters. The
// fields are read individually (not under one lock), so a snapshot taken
// concurrently with a committing run may straddle that run's increments;
// each counter is itself always consistent.
func (p *Pipeline) Stats() PipelineStats {
	return PipelineStats{
		Runs:               p.stats.runs.Load(),
		Updates:            p.stats.updates.Load(),
		ColdStarts:         p.stats.coldStarts.Load(),
		WarmStarted:        p.stats.warmStarted.Load(),
		ForcedReruns:       p.stats.forcedReruns.Load(),
		MatcherCalls:       p.stats.matcherCalls.Load(),
		RecordsIngested:    p.stats.recordsIngested.Load(),
		CacheHits:          p.stats.cacheHits.Load(),
		CacheMisses:        p.stats.cacheMisses.Load(),
		CacheInvalidations: p.stats.cacheInvals.Load(),
		Reassignments:      p.stats.reassignments.Load(),
		RetriedSends:       p.stats.retriedSends.Load(),
		LateBatchesDropped: p.stats.lateDropped.Load(),
	}
}

// PipelineOption customizes a Pipeline.
type PipelineOption func(*Pipeline)

// WithBlocking overrides the blocking configuration (canopy thresholds,
// q-gram size, relational context bounds). Start from
// DefaultOptions().Canopy. The configuration is validated by
// NewPipeline.
func WithBlocking(c CanopyConfig) PipelineOption {
	return func(p *Pipeline) { p.blocking = c }
}

// WithShards sets the shard count of the blocking stage. Blocking is a
// serial ScanCount similarity join over interned q-grams (one dense
// overlap-count array of O(records) working memory, whatever n is):
// sharding its probes cost more CPU than it saved, so n no longer
// changes how blocking runs, and the cover is byte-identical for every
// value. n = 0 (the default) and positive counts are accepted; negative
// counts are rejected by NewPipeline.
func WithShards(n int) PipelineOption {
	return func(p *Pipeline) { p.shards = n }
}

// WithMaxNeighborhood bounds every canopy core to at most k records (the
// seed plus its k-1 most similar neighbors): the paper's "sizes of
// neighborhoods are bounded" regime, which trades per-neighborhood
// matcher cost for message traffic. k = 0 removes the bound. The bound
// composes with WithBlocking in either order.
func WithMaxNeighborhood(k int) PipelineOption {
	return func(p *Pipeline) { p.maxNbr, p.maxNbrSet = k, true }
}

// WithMatcher selects the registered matcher the pipeline runs
// ("mln", "rules", or any name passed to RegisterMatcher). Default: mln.
func WithMatcher(name string) PipelineOption {
	return func(p *Pipeline) { p.matcher = name }
}

// WithScheme selects the execution scheme. Default: SMP.
func WithScheme(s Scheme) PipelineOption {
	return func(p *Pipeline) { p.scheme = s }
}

// WithRunnerOptions forwards options to the underlying Runner
// (parallelism, progress, stats, transitive closure, order, negative
// evidence).
func WithRunnerOptions(opts ...RunnerOption) PipelineOption {
	return func(p *Pipeline) { p.runnerOpts = append(p.runnerOpts, opts...) }
}

// WithExperimentOptions forwards options to experiment construction
// (matcher weights, rule programs). The blocking configuration is
// governed by WithBlocking, not WithCanopy.
func WithExperimentOptions(opts ...Option) PipelineOption {
	return func(p *Pipeline) { p.expOpts = append(p.expOpts, opts...) }
}

// WithDatasetName names the synthesized dataset (for reports and logs).
func WithDatasetName(name string) PipelineOption {
	return func(p *Pipeline) { p.name = name }
}

// NewPipeline builds a Pipeline, validating the configuration: the
// blocking thresholds must be well-formed and the shard count
// non-negative. The matcher name is resolved at Run time against the
// registry.
func NewPipeline(opts ...PipelineOption) (*Pipeline, error) {
	p := &Pipeline{
		name:     "records",
		blocking: DefaultOptions().Canopy,
		matcher:  MatcherMLN,
		scheme:   SchemeSMP,
	}
	for _, o := range opts {
		o(p)
	}
	if p.maxNbrSet {
		p.blocking.MaxNeighborhood = p.maxNbr
	}
	if err := p.blocking.Validate(); err != nil {
		return nil, fmt.Errorf("cem: pipeline blocking config: %w", err)
	}
	if p.shards < 0 {
		return nil, fmt.Errorf("cem: pipeline shards = %d, want >= 0", p.shards)
	}
	if p.matcher == "" {
		return nil, fmt.Errorf("cem: pipeline matcher name is empty")
	}
	switch p.scheme {
	case SchemeNoMP, SchemeSMP, SchemeMMP, SchemeFull, SchemeUB:
	default:
		return nil, fmt.Errorf("cem: pipeline scheme %q unknown", p.scheme)
	}
	return p, nil
}

// PipelineResult is the outcome of one Pipeline run: the scheme result
// plus the fully wired Experiment (for further runs and custom
// evaluation), stage timings, and — when every record was labeled —
// pairwise and B-cubed metrics.
type PipelineResult struct {
	*Result
	// Experiment is the wired instance the run executed on; use it for
	// further Runner builds, evaluation against references, or cover
	// inspection (Experiment.Cover.ComputeStats()).
	Experiment *Experiment
	// Records is the number of ingested records.
	Records int
	// Labeled reports whether every record carried a gold label; the
	// metric fields below are nil otherwise.
	Labeled bool
	// Report holds pairwise precision/recall/F1 against the gold labels.
	Report *Report
	// BCubed holds the per-entity cluster metric against the gold labels.
	BCubed *PRF
	// BlockingTime is the wall time of dataset synthesis + cover
	// construction; MatchingTime is the wall time of the scheme run.
	BlockingTime time.Duration
	MatchingTime time.Duration

	// WarmStarted reports whether the matching stage ran as an
	// incremental continuation (Update's fast path): seeded with the
	// prior evidence and limited to the delta's affected neighborhoods.
	// False for Run, for a first batch, and for forced full re-runs.
	WarmStarted bool
	// ForcedRerun reports that Update detected a non-additive delta —
	// ingestion rearranged existing neighborhoods instead of only
	// growing them — and fell back to a full cold run to preserve
	// equivalence with from-scratch matching.
	ForcedRerun bool

	// records is the full ingested record stream (in arrival order) and
	// index the mutable blocking state — the carry-over Update needs to
	// ingest the next batch incrementally. index is nil when the result
	// came from Run (Update then replays the records once to rebuild it).
	// blocking stamps the configuration that produced this result: a
	// prior built under a DIFFERENT blocking config cannot seed a warm
	// start (its evidence is another cover's fixpoint), so Update forces
	// a cold run for it.
	records  []Record
	index    *canopy.Index
	blocking CanopyConfig
}

// Run executes the pipeline on the given records. The context cancels
// both the blocking stage (between sharded scoring rounds) and the
// matching stage (between neighborhood evaluations).
func (p *Pipeline) Run(ctx context.Context, records []Record) (*PipelineResult, error) {
	return p.run(ctx, records, false)
}

// Resume re-runs the pipeline on the same records but continues the
// matching stage from the checkpoint trail configured via
// WithRunnerOptions(WithCheckpointDir(dir)) — the recovery path for a
// pipeline killed mid-matching. Blocking is deterministic for any shard
// count, so re-running it reconstructs the identical cover the trail
// was written against; the matching stage then picks up at the first
// unfinished round.
func (p *Pipeline) Resume(ctx context.Context, records []Record) (*PipelineResult, error) {
	return p.run(ctx, records, true)
}

func (p *Pipeline) run(ctx context.Context, records []Record, resume bool) (*PipelineResult, error) {
	if len(records) == 0 {
		return nil, fmt.Errorf("cem: pipeline: no records")
	}
	raw, labeled := toBibRecords(records)
	start := time.Now()
	d, err := bib.DatasetFromRecords(p.name, raw)
	if err != nil {
		return nil, fmt.Errorf("cem: pipeline: %w", err)
	}
	cover, err := canopy.BuildCoverContext(ctx, d, p.blocking, p.shards)
	if err != nil {
		return nil, err
	}
	blockingTime := time.Since(start)

	opts := DefaultOptions()
	for _, o := range p.expOpts {
		o(&opts)
	}
	opts.Canopy = p.blocking // WithCanopy must not desync from the built cover
	exp, err := setup(d, opts, cover)
	if err != nil {
		return nil, err
	}
	runner, err := exp.Runner(p.matcher, p.runnerOpts...)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	var res *Result
	if resume {
		res, err = runner.Resume(ctx, p.scheme)
	} else {
		res, err = runner.Run(ctx, p.scheme)
	}
	if err != nil {
		return nil, err
	}
	out := &PipelineResult{
		Result:       res,
		Experiment:   exp,
		Records:      len(records),
		Labeled:      labeled,
		BlockingTime: blockingTime,
		MatchingTime: time.Since(start),
		records:      append([]Record(nil), records...),
		blocking:     p.blocking,
	}
	if labeled {
		report := exp.Evaluate(res)
		bcubed := exp.EvaluateBCubed(res)
		out.Report = &report
		out.BCubed = &bcubed
	}
	p.stats.runs.Add(1)
	p.stats.matcherCalls.Add(int64(res.Stats.MatcherCalls))
	p.stats.recordsIngested.Add(int64(len(records)))
	p.stats.addRun(&res.Stats)
	return out, nil
}

// Update ingests a batch of new records on top of a prior result — the
// incremental execution path. The blocking stage is updated in place
// (canopy.Index.Add scores only the arriving batch against the q-gram
// index and re-emits the cover, byte-identical to a scratch rebuild),
// and the matching stage is warm-started from the prior run's evidence
// and outstanding maximal messages with an initial active set limited to
// the neighborhoods the delta touched: changed or new cover sets, sets
// containing a new entity or one of its coauthors, and sets reached by
// candidate pairs the delta introduced. Everything else stays at its
// prior fixpoint unless a new match re-activates it.
//
// prior == nil runs the first batch cold (equivalent to Run) while
// retaining the streaming blocking state, so a fold of Update over a
// record stream is the canonical ingestion loop. The delta index scores
// only the arrivals, with the same scorer Run's blocking uses. Updates from the same prior may run concurrently or fork a
// stream: the index advance is atomic, and a branch that lost the race
// (or holds a stale prior) transparently rebuilds its own blocking
// state from its own records. For the built-in
// (delta-monotone, well-behaved) matchers the result after every batch
// is identical to a cold Run over all records ingested so far — the
// property the incremental differential harness pins — at a fraction of
// the matcher calls. Metrics are computed only when every ingested
// record is labeled; unlabeled streams skip them without error. Schemes
// without round structure (FULL, UB) have no incremental path.
//
// A prior produced under a different blocking configuration is detected
// (its evidence is another cover's fixpoint) and likewise forces a cold
// run; matcher and experiment options are NOT fingerprinted — hand a
// prior only to Pipelines sharing them (the matcher name itself is
// checked by the snapshot plumbing).
func (p *Pipeline) Update(ctx context.Context, prior *PipelineResult, newRecords []Record) (*PipelineResult, error) {
	if len(newRecords) == 0 {
		return nil, fmt.Errorf("cem: pipeline update: no new records")
	}
	if coreScheme(p.scheme) == "" {
		return nil, fmt.Errorf("cem: pipeline update: scheme %q has no incremental path", p.scheme)
	}

	start := time.Now()
	index, records, err := p.carryOver(ctx, prior)
	if err != nil {
		return nil, err
	}
	base := len(records)
	records = append(records, newRecords...)
	raw, labeled := toBibRecords(records)
	d, err := bib.DatasetFromRecords(p.name, raw)
	if err != nil {
		return nil, fmt.Errorf("cem: pipeline update: %w", err)
	}
	cover, delta, err := index.AddFrom(ctx, d, base)
	if errors.Is(err, canopy.ErrStale) {
		// Another Update advanced the shared index past this prior (a
		// forked or concurrent stream): this branch's view is outdated,
		// so rebuild its own blocking state from its own records.
		if index, err = p.rebuildIndex(ctx, records[:base]); err == nil {
			cover, delta, err = index.AddFrom(ctx, d, base)
		}
	}
	if err != nil {
		return nil, err
	}
	blockingTime := time.Since(start)

	opts := DefaultOptions()
	for _, o := range p.expOpts {
		o(&opts)
	}
	opts.Canopy = p.blocking
	exp, err := setup(d, opts, cover)
	if err != nil {
		return nil, err
	}
	runner, err := exp.Runner(p.matcher, p.runnerOpts...)
	if err != nil {
		return nil, err
	}

	start = time.Now()
	var res *Result
	if prior == nil || !delta.Additive || prior.blocking != p.blocking {
		// First batch; or the delta rearranged existing neighborhoods (a
		// total-cover boundary member moved, shrinking some set relative
		// to its predecessor); or the prior was produced under a
		// different blocking configuration (its evidence is another
		// cover's fixpoint): prior evidence is no longer guaranteed to
		// be re-derivable from scratch, so a full cold run is forced.
		// The streaming blocking state still carries over — later
		// additive batches warm-start again.
		res, err = runner.Run(ctx, p.scheme)
	} else {
		snap, serr := prior.Experiment.Snapshot(prior.Result)
		if serr != nil {
			return nil, serr
		}
		res, err = runner.RunFrom(ctx, p.scheme, snap, affectedByDelta(exp, prior.Experiment, delta))
	}
	if err != nil {
		return nil, err
	}

	out := &PipelineResult{
		Result:       res,
		Experiment:   exp,
		Records:      len(records),
		Labeled:      labeled,
		BlockingTime: blockingTime,
		MatchingTime: time.Since(start),
		WarmStarted:  prior != nil && delta.Additive && prior.blocking == p.blocking,
		ForcedRerun:  prior != nil && !(delta.Additive && prior.blocking == p.blocking),
		records:      records,
		index:        index,
		blocking:     p.blocking,
	}
	if labeled {
		report := exp.Evaluate(res)
		bcubed := exp.EvaluateBCubed(res)
		out.Report = &report
		out.BCubed = &bcubed
	}
	p.stats.updates.Add(1)
	switch {
	case out.WarmStarted:
		p.stats.warmStarted.Add(1)
	case out.ForcedRerun:
		p.stats.forcedReruns.Add(1)
	default:
		p.stats.coldStarts.Add(1)
	}
	p.stats.matcherCalls.Add(int64(res.Stats.MatcherCalls))
	p.stats.recordsIngested.Add(int64(len(newRecords)))
	p.stats.addRun(&res.Stats)
	return out, nil
}

// carryOver extracts (or reconstructs) the streaming blocking state of a
// prior result and returns it with a private copy of the prior records.
// A prior produced by Run carries no index; its records are replayed
// through a fresh one — a one-time cost, after which every Update is
// incremental. The returned index may still be shared with other
// branches of an Update chain; Update advances it through AddFrom,
// which detects a stale base atomically and triggers a fresh rebuild.
func (p *Pipeline) carryOver(ctx context.Context, prior *PipelineResult) (*canopy.Index, []Record, error) {
	if prior == nil {
		index, err := canopy.NewIndex(p.blocking)
		return index, nil, err
	}
	if len(prior.records) == 0 {
		return nil, nil, fmt.Errorf("cem: pipeline update: prior result carries no ingestion state (was it produced by this Pipeline?)")
	}
	records := append([]Record(nil), prior.records...)
	if prior.index != nil && prior.index.Config() == p.blocking {
		return prior.index, records, nil
	}
	// No index (prior from Run), or one built under a DIFFERENT blocking
	// configuration (the prior came through another Pipeline): its cover
	// would not match this pipeline's cold runs, so replay fresh.
	index, err := p.rebuildIndex(ctx, records)
	return index, records, err
}

// rebuildIndex replays records through a fresh delta index.
func (p *Pipeline) rebuildIndex(ctx context.Context, records []Record) (*canopy.Index, error) {
	index, err := canopy.NewIndex(p.blocking)
	if err != nil {
		return nil, err
	}
	raw, _ := toBibRecords(records)
	d, err := bib.DatasetFromRecords(p.name, raw)
	if err != nil {
		return nil, err
	}
	if _, _, err := index.Add(ctx, d); err != nil {
		return nil, err
	}
	return index, nil
}

// affectedByDelta assembles the warm-start active seed: the cover ids an
// ingested delta may have invalidated. Changed covers membership shifts,
// AffectedEntities covers scope/boundary contact with the new entities,
// and the candidate diff covers neighborhoods of old entities whose
// in-scope variable set grew because a changed set co-located an old
// pair for the first time (the candidate universe is cover-derived, so
// a new set can add variables to an unchanged one).
func affectedByDelta(exp, old *Experiment, delta *canopy.Delta) []int32 {
	rel := exp.Dataset.Coauthor()
	oldCands := match.NewPairSet()
	for _, c := range old.Candidates {
		oldCands.Add(c.Pair)
	}
	var newPairs []match.Pair
	for _, c := range exp.Candidates {
		if !oldCands.Has(c.Pair) {
			newPairs = append(newPairs, c.Pair)
		}
	}
	seen := map[int32]bool{}
	var out []int32
	for _, ids := range [][]int32{
		delta.Changed,
		exp.Cover.AffectedEntities(delta.NewEntities, rel),
		exp.Cover.Affected(newPairs, rel),
	} {
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
