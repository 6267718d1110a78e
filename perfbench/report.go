package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// perLayer lists the per-layer metrics a traced run reports, with
// units. A layer that a workload does not reach reports 0 there.
var perLayer = []struct{ name, unit string }{
	{"bib.dataset_s", "s"},
	{"canopy.cover_s", "s"},
	{"canopy.candidates_s", "s"},
	{"canopy.neighborhoods", "count"},
	{"canopy.max_neighborhood", "count"},
	{"canopy.cover_entries", "count"},
	{"canopy.candidate_pairs", "count"},
	{"canopy.true_pair_recall", "ratio"},
	{"canopy.candidate_precision", "ratio"},
	{"mln.ground_s", "s"},
	{"rules.ground_s", "s"},
	{"mln.memo_hit_rate", "ratio"},
	{"core.run_s", "s"},
	{"core.map_s", "s"},
	{"core.map_wall_s", "s"},
	{"core.map_efficiency", "ratio"},
	{"core.matcher_s", "s"},
	{"core.reduce_s", "s"},
	{"core.rounds", "count"},
	{"core.matcher_calls", "count"},
	{"core.evaluations", "count"},
	{"core.skips", "count"},
	{"core.messages_sent", "count"},
	{"core.maximal_messages", "count"},
	{"core.promoted_sets", "count"},
	{"core.productive_eval_ratio", "ratio"},
	{"eval.score_s", "s"},
	{"store.put_evidence_s", "s"},
	{"store.save_blob_s", "s"},
	{"store.other_s", "s"},
	{"store.blob_bytes", "bytes"},
	{"store.dir_bytes", "bytes"},
	{"serve.update_blocking_s", "s"},
	{"serve.journal_bytes", "bytes"},
	{"serve.warm_ratio", "ratio"},
	{"serve.other_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.unattributed_s", "s"},
	{"trace.overhead_pct", "%"},
}

// report collects one run's outcome.
type report struct {
	env      map[string]string
	ops      tally
	setup    []sample
	problems []string
	metrics  []metric
}

// problem records a failed integrity check; the run is then not
// correct.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) endToEnd(ms ...metric) { r.metrics = append(r.metrics, ms...) }

// wallTimes reports wall-clock figures as metric lines only: on a
// shared VM they move with the hypervisor's steal, so the JSON result
// carries the CPU-time figures instead.
func (r *report) wallTimes(ms ...metric) {
	for _, m := range ms {
		m.lineOnly = true
		r.metrics = append(r.metrics, m)
	}
}

// commitLatency returns the median and the 90th percentile of commit
// times (seconds in, milliseconds out) as <prefix>_p50_ms and
// <prefix>_p90_ms, noting when fewer than minBeyond samples lie above
// the p90.
func commitLatency(prefix string, secs []float64, note string) []metric {
	p90, beyond := percentile(secs, 0.9)
	tail := fmt.Sprintf("%d samples above p90", beyond)
	if beyond < minBeyond {
		tail += fmt.Sprintf(", fewer than %d: not a tail estimate", minBeyond)
	}
	return []metric{
		{Name: prefix + "_p50_ms", Value: 1000 * median(secs), Unit: "ms", Samples: len(secs), Note: note},
		{Name: prefix + "_p90_ms", Value: 1000 * p90, Unit: "ms", Samples: len(secs), Note: tail},
	}
}

// opTimes reports the operations' times: the median wall and CPU time
// of one operation (a Run or a whole stream), records per wall second,
// and the commit latency in wall and in CPU time. op names the
// operation; commits are the commit times, each a Run's on a batch
// workload.
func (r *report) opTimes(op string, ops, commits []sample, records int, note string) {
	wall := median(walls(ops))
	r.wallTimes(
		metric{Name: "wall_s", Value: wall, Unit: "s", Samples: len(ops), Note: "median " + op},
		metric{Name: "records_per_s", Value: ratio(float64(records), wall), Unit: "1/s", Samples: len(ops)},
	)
	r.wallTimes(commitLatency("commit", walls(commits), note)...)
	r.endToEnd(metric{Name: "cpu_s", Value: median(cpus(ops)), Unit: "s", Samples: len(ops),
		Note: "median process CPU time of one " + op})
	r.endToEnd(commitLatency("commit_cpu", cpus(commits), note)...)
}

// quality reports match quality against the gold labels.
func (r *report) quality(pairwise, bcubed float64, n int) {
	r.endToEnd(
		metric{Name: "pairwise_f1", Value: pairwise, Unit: "ratio", Samples: n},
		metric{Name: "bcubed_f1", Value: bcubed, Unit: "ratio", Samples: n},
	)
}

// finishTrace writes the spans and reports every per-layer metric as
// the median of its per-operation values (0 where the workload does not
// reach the layer).
func (r *report) finishTrace(tr *tracer, w workload, cfg runConfig, layers map[string][]float64, n int) error {
	if !tr.balanced() {
		r.problem("unbalanced spans")
	}
	if err := r.writeSpans(tr, w, cfg); err != nil {
		return err
	}
	for _, pl := range perLayer {
		r.metrics = append(r.metrics, metric{Name: pl.name, Value: median(layers[pl.name]), Unit: pl.unit, Samples: n})
	}
	return nil
}

// writeSpans stores the traced run's spans beside the binary.
func (r *report) writeSpans(tr *tracer, w workload, cfg runConfig) error {
	path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
	if err := tr.write(path, r.env); err != nil {
		return err
	}
	r.env["span_file"] = path
	return nil
}

// finish adds the metrics every untraced run reports whatever the
// workload: peak RSS, set-up time and the error rate.
func (r *report) finish() {
	r.endToEnd(
		metric{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MiB", Samples: 1},
		metric{Name: "setup_s", Value: median(cpus(r.setup)), Unit: "s", Samples: len(r.setup),
			Note: "median process CPU time of a set-up: input generation and construction"},
	)
	r.wallTimes(metric{Name: "setup_wall_s", Value: median(walls(r.setup)), Unit: "s", Samples: len(r.setup)})
}

// errorRate is failed over attempted operations.
func (r *report) errorRate() metric {
	return metric{Name: "error_rate", Value: ratio(float64(r.ops.failed), float64(r.ops.attempted)),
		Unit: "ratio", Samples: r.ops.attempted}
}

// print writes the human-readable lines and, last, the one-line JSON
// result. error_rate and the wall-clock figures appear only in the
// human-readable lines: the JSON carries the error rate as failed over
// attempted.
func (r *report) print() error {
	printEnv(r.env)
	for _, m := range r.metrics {
		fmt.Println(m)
	}
	fmt.Println(r.errorRate())
	for _, p := range r.problems {
		fmt.Println("problem", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.ops.failed == 0 && len(r.problems) == 0 && r.ops.attempted > 0,
		Attempted: r.ops.attempted,
		Failed:    r.ops.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range r.metrics {
		if !m.lineOnly {
			out.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(line))
	return err
}
