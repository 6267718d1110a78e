package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/match"
)

// coreCounts accumulates what the timing backend and the progress hook
// observe of the round engine across one op.
type coreCounts struct {
	rounds     int
	mapBusy    time.Duration // summed time inside RoundPlan.Evaluate
	mapWall    time.Duration // wall time of the map phases
	reduce     time.Duration // wall time of RoundDriver.FinishRound
	progress   int           // progress events (one per evaluation)
	productive int           // evaluations that added a match
	lastCount  int           // matches after the previous event
}

// timingBackend executes rounds exactly as the default pool backend
// does — every active neighbourhood evaluated against the round-start
// snapshot on a fixed set of workers, then one central FinishRound —
// while timing the map and reduce phases from outside the engine.
type timingBackend struct {
	workers int
	tr      *tracer
	counts  *coreCounts
}

// RunRounds implements core.Backend.
func (b *timingBackend) RunRounds(ctx context.Context, plan *core.RoundPlan, d *core.RoundDriver) error {
	for !d.Done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		round := b.tr.begin("core.round")
		if snap := d.Snapshot(); snap != nil {
			b.counts.lastCount = snap.Len()
		}
		m := b.tr.begin("core.map")
		start := time.Now()
		jobs, busy, err := evaluateAll(ctx, plan, d.Active(), d.Snapshot(), d.AllowSkip(), b.workers)
		b.counts.mapWall += time.Since(start)
		b.counts.mapBusy += busy
		b.tr.end(m)
		if err != nil {
			b.tr.end(round)
			return err
		}
		r := b.tr.begin("core.reduce")
		start = time.Now()
		err = d.FinishRound(jobs)
		b.counts.reduce += time.Since(start)
		b.tr.end(r)
		b.tr.end(round)
		b.counts.rounds++
		if err != nil {
			return err
		}
	}
	return nil
}

// evaluateAll maps one round's active set on the given number of
// workers, returning the jobs in active-set order and the summed time
// spent inside Evaluate.
func evaluateAll(ctx context.Context, plan *core.RoundPlan, ids []int32, snap core.PairSet, allowSkip bool, workers int) ([]core.Job, time.Duration, error) {
	jobs := make([]core.Job, len(ids))
	var busy atomic.Int64
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(workers, len(ids))); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue
				}
				start := time.Now()
				jobs[i] = plan.Evaluate(ids[i], snap, allowSkip)
				busy.Add(int64(time.Since(start)))
			}
		}()
	}
	for i := range ids {
		next <- i
	}
	close(next)
	wg.Wait()
	return jobs, time.Duration(busy.Load()), ctx.Err()
}

// observe is the WithProgress hook: it counts evaluations and those
// that grew the match set. Events arrive in reduce order, one per
// non-skipped evaluation, carrying the match count after it merged.
func (c *coreCounts) observe(ev match.ProgressEvent) {
	c.progress++
	if ev.Matches > c.lastCount {
		c.productive++
	}
	c.lastCount = ev.Matches
}

// timingStore wraps a match.Store and records every call as a span
// named after the method, plus the bytes handed to SaveBlob.
type timingStore struct {
	match.Store
	tr        *tracer
	blobBytes int64
}

func (s *timingStore) timed(name string, call func() error) error {
	id := s.tr.begin(name)
	defer s.tr.end(id)
	return call()
}

func (s *timingStore) PutEvidence(keys []uint64) error {
	return s.timed("store.put_evidence", func() error { return s.Store.PutEvidence(keys) })
}

func (s *timingStore) HasEvidence(key uint64) (ok bool, err error) {
	err = s.timed("store.has_evidence", func() error { ok, err = s.Store.HasEvidence(key); return err })
	return ok, err
}

func (s *timingStore) EvidenceRange(lo, hi uint64, yield func(uint64) bool) error {
	return s.timed("store.evidence_range", func() error { return s.Store.EvidenceRange(lo, hi, yield) })
}

func (s *timingStore) EvidenceLen() (n int, err error) {
	err = s.timed("store.evidence_len", func() error { n, err = s.Store.EvidenceLen(); return err })
	return n, err
}

func (s *timingStore) ClearEvidence() error {
	return s.timed("store.clear_evidence", s.Store.ClearEvidence)
}

func (s *timingStore) SaveBlob(kind, name string, data []byte) error {
	s.blobBytes += int64(len(data))
	return s.timed("store.save_blob", func() error { return s.Store.SaveBlob(kind, name, data) })
}

func (s *timingStore) OpenBlob(kind, name string) (data []byte, err error) {
	err = s.timed("store.open_blob", func() error { data, err = s.Store.OpenBlob(kind, name); return err })
	return data, err
}

func (s *timingStore) ListBlobs(kind string) (names []string, err error) {
	err = s.timed("store.list_blobs", func() error { names, err = s.Store.ListBlobs(kind); return err })
	return names, err
}

func (s *timingStore) Flush() error {
	return s.timed("store.flush", s.Store.Flush)
}

// evidenceSpan reports whether a store span belongs to the engine's
// evidence mirroring (inside the matching stage) rather than to the
// committer's state snapshot (after it).
func evidenceSpan(name string) bool {
	switch name {
	case "store.put_evidence", "store.has_evidence", "store.evidence_range",
		"store.evidence_len", "store.clear_evidence":
		return true
	}
	return false
}
