package main

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"time"

	cem "repro"
	"repro/internal/bib"
	"repro/match"
)

// workload is one named input set and the call path it drives.
type workload struct {
	name   string
	kind   cem.DatasetKind
	scale  float64
	scheme cem.Scheme
	// stream sends the corpus through serve.Committer.Apply in batches
	// instead of calling Pipeline.Run.
	stream bool
	why    string
}

// streamBatch is the people-stream batch size (records per commit).
const streamBatch = 16

// peopleRules is the matcher program of the people-stream workload,
// read from the checkout the benchmark runs in.
const peopleRules = "testdata/rules/people.rules"

var workloads = []workload{
	{
		name: "dblp-smp", kind: cem.DBLP, scale: 2.0, scheme: cem.SchemeSMP,
		why: "many small neighbourhoods: canopy blocking is ~90% of a Run and the matcher almost idle",
	},
	{
		name: "hepth-mmp", kind: cem.HEPTH, scale: 1.0, scheme: cem.SchemeMMP,
		why: "few large neighbourhoods: candidate pairs, cover building, MMP messages and the verdict memo",
	},
	{
		name: "people-stream", kind: cem.People, scale: 1.0, scheme: cem.SchemeSMP, stream: true,
		why: "write path: incremental blocking, warm RunFrom, rules-language matcher, journal and disk store",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// corpusSeed is the generator seed of every workload's corpus; a run's
// seed shuffles the record order. The cost of a HEPTH-like corpus moves
// by up to 2x with its generator seed (its largest neighbourhoods
// dominate candidate generation and MMP), and that of a People-like
// stream by about 20% (its record and candidate counts move with the
// seed); no window averages that away. The record order moves the cost
// by a few percent.
const corpusSeed = 42

// generate makes a workload's records for a run seed: the corpus of
// corpusSeed in an order drawn from the run seed.
func generate(w workload, seed int64) ([]cem.Record, error) {
	recs, err := cem.GenerateRecords(w.kind, w.scale, corpusSeed)
	if err != nil {
		return nil, err
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs, nil
}

// runConfig is what the command line fixes for one run.
type runConfig struct {
	seed    int64
	window  time.Duration
	trace   bool
	out     string
	workers int
}

// tally counts attempted and failed operations. An operation fails
// when it returns an error or when its match set differs from the
// reference.
type tally struct {
	attempted, failed int
}

// check records one operation and reports whether it succeeded.
func (t *tally) check(err error, got match.PairSet, want []match.PairKey) bool {
	t.attempted++
	if err != nil || got == nil || !slices.Equal(got.SortedKeys(), want) {
		t.failed++
		return false
	}
	return true
}

// toBib lowers generated records to the flat form the dataset builder
// takes, as Pipeline.Run does.
func toBib(records []cem.Record) []bib.Record {
	out := make([]bib.Record, len(records))
	for i, r := range records {
		br := bib.Record{Name: r.RecordKey(), Group: -1, Gold: -1}
		if g, ok := r.(cem.Grouped); ok {
			br.Group = g.RecordGroup()
		}
		if l, ok := r.(cem.Labeled); ok {
			br.Gold = l.RecordGold()
		}
		out[i] = br
	}
	return out
}

// settle collects garbage so one measurement does not pay for the
// previous one's.
func settle() { runtime.GC() }

// more reports whether a window loop goes on: until the window has
// closed and at least need operations are in, but never past three
// windows (when operations keep failing, none is ever in).
func more(start time.Time, window time.Duration, n, need int) bool {
	elapsed := time.Since(start)
	return elapsed < 3*window && (n < need || elapsed < window)
}

// setupReps is how many times a run repeats its set-up to report the
// median set-up time.
const setupReps = 31

// measureSetup runs build setupReps times, each after a collection,
// and returns their times and the last build's value. release, when
// non-nil, runs untimed after each build (to close what it opened).
func measureSetup[T any](ctx context.Context, build func(context.Context) (T, error), release func(T)) ([]sample, T, error) {
	var (
		last T
		ss   []sample
	)
	for i := 0; i < setupReps; i++ {
		settle()
		w := startWatch()
		v, err := build(ctx)
		if err != nil {
			return nil, last, err
		}
		ss = append(ss, w.stop())
		if release != nil {
			release(v)
		}
		last = v
	}
	return ss, last, nil
}
