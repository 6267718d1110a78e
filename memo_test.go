package cem_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	cem "repro"
	"repro/internal/canopy"
)

// checkCandidates asserts an experiment's candidate pairs equal a fresh
// CandidatePairs over its cover: the name-level memo an index shares
// across commits must never change a level or drop a pair.
func checkCandidates(t *testing.T, where string, res *cem.PipelineResult) {
	t.Helper()
	exp := res.Experiment
	want := canopy.CandidatePairs(exp.Dataset, exp.Cover)
	if len(exp.Candidates) != len(want) {
		t.Fatalf("%s: %d candidates, fresh CandidatePairs has %d", where, len(exp.Candidates), len(want))
	}
	for i, c := range exp.Candidates {
		if c.Pair != want[i].Pair || c.Level != want[i].Level {
			t.Fatalf("%s: candidate %d is %v at level %d, fresh CandidatePairs has %v at level %d",
				where, i, c.Pair, c.Level, want[i].Pair, want[i].Level)
		}
	}
}

// TestStreamCandidatesMatchFreshMemo streams a shuffled People corpus
// through Update in 16-record commits and checks the candidate pairs
// after every commit, on a fork from a stale prior (the ErrStale
// rebuild), and after Reopen from a disk store and one further commit.
func TestStreamCandidatesMatchFreshMemo(t *testing.T) {
	ctx := context.Background()
	records, err := cem.GenerateRecords(cem.People, 0.5, 42)
	if err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(3)).Shuffle(len(records), func(i, j int) {
		records[i], records[j] = records[j], records[i]
	})
	var batches [][]cem.Record
	for lo := 0; lo < len(records); lo += 16 {
		batches = append(batches, records[lo:min(lo+16, len(records))])
	}
	s, err := cem.OpenStore("disk", cem.WithStoreDir(filepath.Join(t.TempDir(), "store")))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pipe, err := cem.NewPipeline(
		cem.WithMatcher(cem.MatcherRules),
		cem.WithScheme(cem.SchemeSMP),
		cem.WithRunnerOptions(cem.WithOpenedStore(s)),
	)
	if err != nil {
		t.Fatal(err)
	}

	var results []*cem.PipelineResult
	var prior *cem.PipelineResult
	for i, b := range batches[:len(batches)-1] {
		if prior, err = pipe.Update(ctx, prior, b); err != nil {
			t.Fatal(err)
		}
		checkCandidates(t, fmt.Sprintf("commit %d", i), prior)
		results = append(results, prior)
	}
	last := batches[len(batches)-1]

	// The shared index is past results[2]: this fork rebuilds its own.
	fork, err := pipe.Update(ctx, results[2], last)
	if err != nil {
		t.Fatal(err)
	}
	checkCandidates(t, "stale fork", fork)
	fork, err = pipe.Update(ctx, fork, batches[3])
	if err != nil {
		t.Fatal(err)
	}
	checkCandidates(t, "commit after the stale fork", fork)

	if err := cem.SaveState(s, prior, 1); err != nil {
		t.Fatal(err)
	}
	var seen []cem.Record
	for _, b := range batches[:len(batches)-1] {
		seen = append(seen, b...)
	}
	reopened, _, err := pipe.Reopen(ctx, seen, s)
	if err != nil {
		t.Fatal(err)
	}
	checkCandidates(t, "reopen", reopened)
	next, err := pipe.Update(ctx, reopened, last)
	if err != nil {
		t.Fatal(err)
	}
	checkCandidates(t, "commit after reopen", next)
}
