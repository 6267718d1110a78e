package cem_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	cem "repro"
	"repro/match"
)

// storeRecords synthesizes a small labeled record stream for the
// store-state tests.
func storeRecords(t *testing.T) []cem.Record {
	t.Helper()
	records, err := cem.GenerateRecords(cem.HEPTH, 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	return records
}

// TestStoreStateReopen pins the restart-without-replay contract: a
// pipeline run on a disk store, saved with SaveState, reopens from the
// store byte-identical — same matches, same metrics — with ZERO matcher
// calls, and the reopened result continues incrementally like the
// original would have.
func TestStoreStateReopen(t *testing.T) {
	ctx := context.Background()
	records := storeRecords(t)
	dir := filepath.Join(t.TempDir(), "store")

	s, err := cem.OpenStore("disk", cem.WithStoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cem.NewPipeline(
		cem.WithMatcher(cem.MatcherMLN),
		cem.WithScheme(cem.SchemeSMP),
		cem.WithRunnerOptions(cem.WithOpenedStore(s)),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Ingest in two batches so the saved state carries streaming
	// blocking state (the postings blob).
	half := len(records) / 2
	first, err := pipe.Update(ctx, nil, records[:half])
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Update(ctx, first, records[half:])
	if err != nil {
		t.Fatal(err)
	}
	// The store's evidence mirrors the run's accumulated M+.
	var stored int
	if stored, err = s.EvidenceLen(); err != nil {
		t.Fatal(err)
	}
	if stored != res.Matches.Len() {
		t.Fatalf("store holds %d evidence keys, result has %d matches", stored, res.Matches.Len())
	}
	const seq = 5
	if err := cem.SaveState(s, res, seq); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process: new store handle, new pipeline, same records.
	s2, err := cem.OpenStore("disk", cem.WithStoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	pipe2, err := cem.NewPipeline(
		cem.WithMatcher(cem.MatcherMLN),
		cem.WithScheme(cem.SchemeSMP),
		cem.WithRunnerOptions(cem.WithOpenedStore(s2)),
	)
	if err != nil {
		t.Fatal(err)
	}
	reopened, gotSeq, err := pipe2.Reopen(ctx, records, s2)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq {
		t.Fatalf("Reopen sequence = %d, want %d", gotSeq, seq)
	}
	if got, want := renderMatches(reopened.Result), renderMatches(res.Result); got != want {
		t.Fatalf("reopened matches diverge: %s", firstDiff(got, want))
	}
	if reopened.Stats.MatcherCalls != 0 || reopened.Stats.Evaluations != 0 {
		t.Fatalf("Reopen invoked the matcher: %d calls, %d evaluations",
			reopened.Stats.MatcherCalls, reopened.Stats.Evaluations)
	}
	if pipe2.Stats().MatcherCalls != 0 {
		t.Fatalf("pipeline counters recorded %d matcher calls during Reopen", pipe2.Stats().MatcherCalls)
	}
	if res.Labeled {
		if reopened.Report == nil || reopened.Report.PRF != res.Report.PRF {
			t.Fatalf("reopened metrics diverge: %+v vs %+v", reopened.Report, res.Report)
		}
	}

	// The reopened state ingests incrementally and agrees with the
	// never-killed stream.
	extra, err := cem.GenerateRecords(cem.HEPTH, 0.05, 99)
	if err != nil {
		t.Fatal(err)
	}
	afterReopen, err := pipe2.Update(ctx, reopened, extra)
	if err != nil {
		t.Fatal(err)
	}
	// The live continuation runs store-less (the original store was
	// closed with its process); only the outputs are compared.
	livePipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	afterLive, err := livePipe.Update(ctx, res, extra)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderMatches(afterReopen.Result), renderMatches(afterLive.Result); got != want {
		t.Fatalf("post-reopen update diverges from the live stream: %s", firstDiff(got, want))
	}
	if !afterReopen.WarmStarted {
		t.Fatal("post-reopen update did not warm-start (postings blob not honored?)")
	}
}

// TestStoreStateReopenValidation pins Reopen's failure modes: no saved
// snapshot, wrong record stream, wrong matcher.
func TestStoreStateReopenValidation(t *testing.T) {
	ctx := context.Background()
	records := storeRecords(t)

	empty, err := cem.OpenStore("mem")
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pipe.Reopen(ctx, records, empty); !errors.Is(err, match.ErrBlobNotFound) {
		t.Fatalf("Reopen on an empty store: err = %v, want ErrBlobNotFound", err)
	}

	s, err := cem.OpenStore("mem")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Update(ctx, nil, records)
	if err != nil {
		t.Fatal(err)
	}
	if err := cem.SaveState(s, res, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pipe.Reopen(ctx, records[:len(records)-3], s); err == nil {
		t.Fatal("Reopen accepted a shorter record stream than the snapshot spans")
	}
	rulesPipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherRules), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rulesPipe.Reopen(ctx, records, s); err == nil {
		t.Fatal("Reopen accepted a snapshot saved by a different matcher")
	}
}

// TestReopenTreatsV1PostingsAsCacheMiss: a postings blob in the older
// CEMP1 format is a cache miss in Reopen, not an error — the records are
// replayed through a fresh index, which reaches byte-identical blocking
// state. The CEMP1 blob is the current blob under the old version tag,
// so only the version check can turn it away.
func TestReopenTreatsV1PostingsAsCacheMiss(t *testing.T) {
	ctx := context.Background()
	records := storeRecords(t)
	s, err := cem.OpenStore("mem")
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := cem.NewPipeline(cem.WithMatcher(cem.MatcherMLN), cem.WithScheme(cem.SchemeSMP))
	if err != nil {
		t.Fatal(err)
	}
	half := len(records) / 2
	first, err := pipe.Update(ctx, nil, records[:half])
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipe.Update(ctx, first, records[half:])
	if err != nil {
		t.Fatal(err)
	}
	if err := cem.SaveState(s, res, 1); err != nil {
		t.Fatal(err)
	}
	v2, err := s.OpenBlob(match.KindPostings, "latest")
	if err != nil {
		t.Fatal(err)
	}
	const v1Magic, v2Magic = "CEMP1\n", "CEMP2\n"
	if !bytes.HasPrefix(v2, []byte(v2Magic)) {
		t.Fatalf("postings blob starts %q, want %q", v2[:min(len(v2), 6)], v2Magic)
	}
	v1 := append([]byte(v1Magic), v2[len(v2Magic):]...)
	if err := s.SaveBlob(match.KindPostings, "latest", v1); err != nil {
		t.Fatal(err)
	}

	reopened, _, err := pipe.Reopen(ctx, records, s)
	if err != nil {
		t.Fatalf("Reopen over a CEMP1 postings blob: %v", err)
	}
	if got, want := renderMatches(reopened.Result), renderMatches(res.Result); got != want {
		t.Fatalf("reopened matches diverge: %s", firstDiff(got, want))
	}
	if err := cem.SaveState(s, reopened, 2); err != nil {
		t.Fatal(err)
	}
	replayed, err := s.OpenBlob(match.KindPostings, "latest")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed, v2) {
		t.Fatal("the replayed blocking state differs from the state the stream saved")
	}
}

// TestWithStoreLazySharing pins that WithStore opens the named store
// once and shares it across every run of the pipeline.
func TestWithStoreLazySharing(t *testing.T) {
	ctx := context.Background()
	records := storeRecords(t)
	dir := filepath.Join(t.TempDir(), "store")
	pipe, err := cem.NewPipeline(
		cem.WithMatcher(cem.MatcherMLN),
		cem.WithScheme(cem.SchemeSMP),
		cem.WithRunnerOptions(cem.WithStore("disk", cem.WithStoreDir(dir))),
	)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := pipe.Run(ctx, records)
	if err != nil {
		t.Fatal(err)
	}
	// A second run re-clears and re-fills the same store.
	res2, err := pipe.Run(ctx, records)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderMatches(res2.Result), renderMatches(res1.Result); got != want {
		t.Fatalf("second run diverged: %s", firstDiff(got, want))
	}
	s, err := cem.OpenStore("disk", cem.WithStoreDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n, err := s.EvidenceLen()
	if err != nil {
		t.Fatal(err)
	}
	if n != res2.Matches.Len() {
		t.Fatalf("store holds %d keys, run produced %d matches", n, res2.Matches.Len())
	}
	if _, err := cem.OpenStore("bogus"); err == nil {
		t.Fatal("OpenStore accepted an unregistered name")
	}
}
