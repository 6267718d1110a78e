package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	cem "repro"
	"repro/internal/canopy"
	"repro/internal/core"
	"repro/match"
)

// render writes a match set and MMP's outstanding messages as text, the
// byte form the wrappers must leave unchanged.
func render(matches match.PairSet, msgs [][]match.Pair) []byte {
	var b bytes.Buffer
	for _, p := range matches.Sorted() {
		fmt.Fprintf(&b, "%d %d\n", p.A, p.B)
	}
	for _, m := range msgs {
		fmt.Fprintf(&b, "msg %v\n", m)
	}
	return b.Bytes()
}

func smallCorpus(t *testing.T, kind cem.DatasetKind, scale float64) *corpus {
	t.Helper()
	recs, err := cem.GenerateRecords(kind, scale, 7)
	if err != nil {
		t.Fatal(err)
	}
	return &corpus{records: recs, raw: toBib(recs)}
}

// The timing backend runs the same rounds as the pool backend: equal
// match sets, outstanding messages and engine counters.
func TestTimingBackendLeavesOutputsIdentical(t *testing.T) {
	ctx := context.Background()
	pipe, err := cem.NewPipeline(cem.WithScheme(cem.SchemeMMP))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Run(ctx, smallCorpus(t, cem.HEPTH, 0.1).records)
	if err != nil {
		t.Fatal(err)
	}
	exp, m := res.Experiment, res.Experiment.MLN
	for _, scheme := range []string{"SMP", "MMP"} {
		cfg := core.Config{Cover: exp.Cover, Matcher: m, Relation: exp.Dataset.Coauthor(), Parallelism: 2}
		want, err := core.RunBackend(ctx, cfg, scheme, core.PoolBackend{}, core.CheckpointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		counts := &coreCounts{}
		cfg.Progress = counts.observe
		got, err := core.RunBackend(ctx, cfg, scheme, &timingBackend{workers: 2, tr: newTracer(), counts: counts}, core.CheckpointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(got.Matches, got.Messages), render(want.Matches, want.Messages)) {
			t.Errorf("%s: timing backend output differs from the pool backend's", scheme)
		}
		g, w := got.Stats, want.Stats
		if g.MatcherCalls != w.MatcherCalls || g.Evaluations != w.Evaluations || g.Skips != w.Skips ||
			g.MessagesSent != w.MessagesSent || g.MaximalMessages != w.MaximalMessages || g.PromotedSets != w.PromotedSets {
			t.Errorf("%s: counters differ: timing %v, pool %v", scheme, g, w)
		}
		if counts.progress != g.Evaluations || counts.rounds == 0 {
			t.Errorf("%s: %d progress events over %d rounds for %d evaluations", scheme, counts.progress, counts.rounds, g.Evaluations)
		}
	}
}

// The traced recomposition computes what Pipeline.Run computes.
func TestTracedRunMatchesPipelineRun(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		w     workload
		scale float64
	}{
		{workloads[0], 0.2},
		{workloads[1], 0.1},
	} {
		c := smallCorpus(t, tc.w.kind, tc.scale)
		pipe, err := newBatchPipeline(tc.w, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pipe.Run(ctx, c.records)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := tracedRun(ctx, tr, tc.w, c, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(got.matches, nil), render(want.Matches, nil)) {
			t.Errorf("%s: traced match set differs from Pipeline.Run's", tc.w.name)
		}
		if got.pairwiseF1 != want.Report.PRF.F1 || got.bcubedF1 != want.BCubed.F1 {
			t.Errorf("%s: traced scores %v/%v, Pipeline.Run %v/%v", tc.w.name,
				got.pairwiseF1, got.bcubedF1, want.Report.PRF.F1, want.BCubed.F1)
		}
		if got.values["canopy.candidate_pairs"] != float64(len(want.Experiment.Candidates)) ||
			got.values["canopy.neighborhoods"] != float64(want.Experiment.Cover.Len()) {
			t.Errorf("%s: traced sizes %v differ from the pipeline's", tc.w.name, got.values)
		}
		if !tr.balanced() {
			t.Errorf("%s: spans left open", tc.w.name)
		}
	}
}

// storeState dumps a store's evidence and snapshot blobs as bytes and
// decodes its postings blobs: gob encodes the index's maps in random
// order, so equal postings need not be equal bytes.
func storeState(t *testing.T, s match.Store) ([]byte, []*canopy.Index) {
	t.Helper()
	var b bytes.Buffer
	if err := s.EvidenceRange(0, ^uint64(0), func(k uint64) bool {
		fmt.Fprintf(&b, "%d\n", k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var postings []*canopy.Index
	for _, kind := range []string{match.KindSnapshot, match.KindPostings} {
		names, err := s.ListBlobs(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			data, err := s.OpenBlob(kind, n)
			if err != nil {
				t.Fatal(err)
			}
			if kind == match.KindPostings {
				ix, err := canopy.LoadIndex(data)
				if err != nil {
					t.Fatal(err)
				}
				postings = append(postings, ix)
				data = nil
			}
			fmt.Fprintf(&b, "%s/%s %x\n", kind, n, data)
		}
	}
	return b.Bytes(), postings
}

// A committer whose store and backend are the timing wrappers commits
// the same states and leaves the same bytes in its disk store.
func TestTimingStoreLeavesStateIdentical(t *testing.T) {
	ctx := context.Background()
	recs := smallCorpus(t, cem.DBLP, 0.1).records
	out := t.TempDir()
	var states, matches [2][]byte
	var postings [2][]*canopy.Index
	for i, probe := range []*streamProbe{nil, {tr: newTracer(), counts: &coreCounts{}}} {
		r, err := openRig(ctx, out, cem.MatcherMLN, 2, probe)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < len(recs); j += 40 {
			if _, err := r.committer.Apply(ctx, recs[j:min(j+40, len(recs))]); err != nil {
				t.Fatal(err)
			}
		}
		matches[i] = render(r.committer.Snapshot().Result.Matches, nil)
		states[i], postings[i] = storeState(t, r.disk)
		if err := r.close(); err != nil {
			t.Fatal(err)
		}
		if probe != nil && (probe.store.blobBytes == 0 || !probe.tr.balanced()) {
			t.Errorf("timing store saw %d blob bytes; spans balanced %v", probe.store.blobBytes, probe.tr.balanced())
		}
	}
	if !bytes.Equal(matches[0], matches[1]) {
		t.Error("committed match sets differ with the timing wrappers")
	}
	if !bytes.Equal(states[0], states[1]) {
		t.Error("disk store evidence or snapshot differs with the timing wrappers")
	}
	if len(postings[0]) == 0 || !reflect.DeepEqual(postings[0], postings[1]) {
		t.Error("disk store postings differ with the timing wrappers")
	}
}
