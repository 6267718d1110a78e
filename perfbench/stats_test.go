package main

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/match"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := slices.Clone(tc.in)
		if got := median(in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		if !slices.Equal(in, tc.in) {
			t.Errorf("median reordered its input: %v", in)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(20 - i) // 20..1, unsorted
	}
	for _, tc := range []struct {
		p          float64
		want       float64
		wantBeyond int
	}{
		{0.5, 10, 10},
		{0.9, 18, 2},
		{1, 20, 0},
		{0.01, 1, 19},
	} {
		v, beyond := percentile(xs, tc.p)
		if v != tc.want || beyond != tc.wantBeyond {
			t.Errorf("percentile(1..20, %v) = %v with %d beyond, want %v with %d", tc.p, v, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 0.9); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %v, %d", v, beyond)
	}
}

// The p90 is a tail estimate only with at least ten samples above it:
// 100 samples is the least that gives one, and two 57-commit streams
// (114 commits) give 11.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if n := samplesFor(0.9); n != 100 {
		t.Fatalf("samplesFor(0.9) = %d, want 100", n)
	}
	if n := samplesFor(0.5); n != 20 {
		t.Fatalf("samplesFor(0.5) = %d, want 20", n)
	}
	for _, tc := range []struct{ n, beyond int }{{99, 9}, {100, 10}, {114, 11}} {
		if _, beyond := percentile(make([]float64, tc.n), 0.9); beyond != tc.beyond {
			t.Errorf("n=%d: %d samples beyond p90, want %d", tc.n, beyond, tc.beyond)
		}
	}
	if ms := commitLatency("commit", make([]float64, 57), ""); !strings.Contains(ms[1].Note, "not a tail estimate") {
		t.Errorf("57 commits: p90 note %q should say it is not a tail estimate", ms[1].Note)
	}
	if ms := commitLatency("commit", make([]float64, 114), ""); strings.Contains(ms[1].Note, "not a tail") {
		t.Errorf("114 commits: p90 note %q should accept the tail", ms[1].Note)
	}
}

func TestTallyCountsWrongMatchSetsAsFailures(t *testing.T) {
	ref := match.NewPairSet(match.MakePair(1, 2), match.MakePair(3, 4), match.MakePair(5, 9))
	want := ref.SortedKeys()

	var tl tally
	if !tl.check(nil, ref.Clone(), want) {
		t.Fatal("the reference itself was counted as a failure")
	}
	dropped := ref.Minus(match.NewPairSet(match.MakePair(3, 4)))
	added := ref.Clone()
	added.Add(match.MakePair(6, 7))
	moved := match.NewPairSet(match.MakePair(1, 2), match.MakePair(3, 4), match.MakePair(5, 8))
	for name, got := range map[string]match.PairSet{"dropped": dropped, "added": added, "moved": moved, "nil": nil} {
		if tl.check(nil, got, want) {
			t.Errorf("%s pair: perturbed match set passed", name)
		}
	}
	if tl.check(errors.New("boom"), ref, want) {
		t.Error("an operation that returned an error passed")
	}
	if tl.attempted != 6 || tl.failed != 5 {
		t.Errorf("tally = %d attempted, %d failed; want 6, 5", tl.attempted, tl.failed)
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.beginOp("op")
	a := tr.begin("a")
	b := tr.begin("b")
	time.Sleep(2 * time.Millisecond)
	tr.end(b)
	tr.end(a)
	tr.readOff("r", root, time.Now(), time.Millisecond)
	tr.end(root)
	if !tr.balanced() {
		t.Fatal("spans left open")
	}
	total, self, top := tr.opTimes(tr.opOf(root))
	if self["a"] != total["a"]-total["b"] || self["b"] != total["b"] {
		t.Errorf("self times %v inconsistent with totals %v", self, total)
	}
	if got := self["op"]; got != total["op"]-total["a"]-time.Millisecond {
		t.Errorf("root self %v, want total %v minus children", got, total["op"])
	}
	if top["a"] != total["a"] || top["b"] != 0 || top["r"] != time.Millisecond {
		t.Errorf("top-level children %v", top)
	}
	if op2 := tr.beginOp("op"); tr.opOf(op2) == tr.opOf(root) {
		t.Error("a new op reused the previous op id")
	}
}

// The JSON result carries the CPU-time figures; the wall-clock ones
// are metric lines only.
func TestOnlyCPUTimesReachTheJSON(t *testing.T) {
	ops := []sample{{wall: 2, cpu: 3}, {wall: 4, cpu: 3.2}, {wall: 2.2, cpu: 3.1}}
	rep := &report{}
	rep.opTimes("Run", ops, ops, 1000, "")
	json := map[string]float64{}
	for _, m := range rep.metrics {
		if !m.lineOnly {
			json[m.Name] = m.Value
		}
	}
	want := map[string]float64{"cpu_s": 3.1, "commit_cpu_p50_ms": 3100, "commit_cpu_p90_ms": 3200}
	if len(json) != len(want) {
		t.Fatalf("JSON metrics %v, want %v", json, want)
	}
	for name, v := range want {
		if got, ok := json[name]; !ok || math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

func TestStopwatchCountsCPUTime(t *testing.T) {
	w := startWatch()
	x := 0.0
	for i := 0; i < 20_000_000; i++ {
		x += float64(i % 7)
	}
	s := w.stop()
	if x == 0 || s.cpu <= 0 || s.wall <= 0 {
		t.Errorf("a busy loop measured %+v", s)
	}
}

func TestWindowLoop(t *testing.T) {
	now := time.Now()
	if !more(now, time.Second, 5, 3) {
		t.Error("stopped before the window closed")
	}
	long := now.Add(-2 * time.Second)
	if !more(long, time.Second, 2, 3) || more(long, time.Second, 3, 3) {
		t.Error("past the window, the loop should run exactly until need operations are in")
	}
	if more(now.Add(-3*time.Second), time.Second, 0, 3) {
		t.Error("ran past three windows")
	}
}
