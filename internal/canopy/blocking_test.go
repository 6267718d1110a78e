package canopy

// Property tests for the blocking invariants the pipeline relies on:
// gold pairs are never blocked apart, the canopy size bound holds, and
// sharded construction is byte-identical to serial.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/similarity"
)

// canopyMembership indexes which canopies contain each record.
func canopyMembership(n int, sets [][]core.EntityID) []map[int]bool {
	in := make([]map[int]bool, n)
	for i := range in {
		in[i] = map[int]bool{}
	}
	for ci, s := range sets {
		for _, e := range s {
			in[e][ci] = true
		}
	}
	return in
}

func shareCanopy(in []map[int]bool, a, b core.EntityID) bool {
	for c := range in[a] {
		if in[b][c] {
			return true
		}
	}
	return false
}

// TestGoldPairsShareCanopy pins blocking recall on the cover the
// matchers actually see (canopies + aligned expansion + totality
// patching), at the default thresholds:
//
//   - every STRONG-similarity gold pair (near-identical names — the
//     pairs blocking exists to keep together) shares a neighborhood,
//     with zero tolerance;
//   - across ALL decidable gold pairs (non-zero similarity level) the
//     blocked-apart fraction stays under a per-regime ceiling — a
//     regression ratchet over the measured tail of abbreviated,
//     low-gram-overlap medium/weak pairs (~5% on HEPTH, ~0.3% on DBLP).
//
// Gold pairs whose surface forms drifted to zero similarity (double
// typos) are out of every matcher's reach regardless of blocking and
// are not counted.
func TestGoldPairsShareCanopy(t *testing.T) {
	for _, tc := range []struct {
		preset  datagen.Config
		maxMiss float64
	}{
		{datagen.HEPTHLike(0.25, 42), 0.08},
		{datagen.DBLPLike(0.25, 42), 0.01},
		{datagen.HEPTHLike(0.3, 7), 0.08},
		{datagen.DBLPLike(0.3, 7), 0.01},
	} {
		d := datagen.MustGenerate(tc.preset)
		parsed := make([]similarity.Name, d.NumRefs())
		for i := range d.Refs {
			parsed[i] = similarity.ParseName(d.Refs[i].Name)
		}
		cover := BuildCover(d, DefaultConfig())
		in := canopyMembership(d.NumRefs(), cover.Sets)
		missed, total, strongMissed, strongTotal := 0, 0, 0, 0
		for p := range d.TruePairs() {
			lvl := similarity.NameLevel(parsed[p[0]], parsed[p[1]])
			if lvl == similarity.LevelNone {
				continue
			}
			total++
			shared := shareCanopy(in, p[0], p[1])
			if lvl == similarity.LevelStrong {
				strongTotal++
				if !shared {
					strongMissed++
					t.Logf("%s: STRONG pair blocked apart: %q vs %q",
						tc.preset.Name, d.Refs[p[0]].Name, d.Refs[p[1]].Name)
				}
			}
			if !shared {
				missed++
			}
		}
		if total == 0 || strongTotal == 0 {
			t.Fatalf("%s: no decidable gold pairs (total=%d strong=%d)", tc.preset.Name, total, strongTotal)
		}
		if strongMissed != 0 {
			t.Errorf("%s (seed %d): %d/%d strong gold pairs share no neighborhood",
				tc.preset.Name, tc.preset.Seed, strongMissed, strongTotal)
		}
		if frac := float64(missed) / float64(total); frac > tc.maxMiss {
			t.Errorf("%s (seed %d): %d/%d (%.4f) decidable gold pairs blocked apart, ceiling %.2f",
				tc.preset.Name, tc.preset.Seed, missed, total, frac, tc.maxMiss)
		}
	}
}

// TestMaxNeighborhoodBound: with the cap set, every canopy core respects
// it, the result is still a cover, and dropped records still seed their
// own canopies.
func TestMaxNeighborhoodBound(t *testing.T) {
	d := datagen.MustGenerate(datagen.HEPTHLike(0.3, 5))
	names := make([]string, d.NumRefs())
	for i := range d.Refs {
		names[i] = d.Refs[i].Name
	}
	for _, bound := range []int{2, 5, 16} {
		cfg := DefaultConfig()
		cfg.MaxNeighborhood = bound
		sets := Canopies(names, cfg)
		covered := make([]bool, len(names))
		for ci, s := range sets {
			if len(s) > bound {
				t.Fatalf("bound %d: canopy %d has %d members", bound, ci, len(s))
			}
			for _, e := range s {
				covered[e] = true
			}
		}
		for i, c := range covered {
			if !c {
				t.Fatalf("bound %d: record %d (%q) not covered", bound, i, names[i])
			}
		}
	}
	// The unbounded run must exceed a tight bound somewhere, or the test
	// proves nothing.
	maxSize := 0
	for _, s := range Canopies(names, DefaultConfig()) {
		if len(s) > maxSize {
			maxSize = len(s)
		}
	}
	if maxSize <= 16 {
		t.Fatalf("largest unbounded canopy is %d; corpus too small to exercise the cap", maxSize)
	}
}

// TestCapKeepsSeedAndMostSimilar: the cap keeps the seed and prefers
// higher-similarity members (identical names over distant ones).
func TestCapKeepsSeedAndMostSimilar(t *testing.T) {
	// Record 0 seeds a canopy over near and far variants.
	names := []string{
		"Vibhor Rastogi",  // 0: seed
		"Vibhor Rastogi",  // 1: identical -> sim 1.0
		"Vibhor Rastogy",  // 2: one typo
		"V. Rastogi",      // 3: abbreviated (much lower gram overlap)
		"Vibhor Rastogi ", // 4: identical after normalization
	}
	cfg := DefaultConfig()
	cfg.MaxNeighborhood = 3
	sets := Canopies(names, cfg)
	first := sets[0]
	if len(first) != 3 {
		t.Fatalf("capped canopy = %v, want 3 members", first)
	}
	has := func(id core.EntityID) bool {
		for _, e := range first {
			if e == id {
				return true
			}
		}
		return false
	}
	if !has(0) {
		t.Fatalf("seed dropped from its own canopy: %v", first)
	}
	if !has(1) || !has(4) {
		t.Errorf("cap kept %v, want the identical names {0,1,4}", first)
	}
	if has(3) {
		t.Errorf("cap kept the least similar member 3 over identical names: %v", first)
	}
}

// TestShardedIdenticalToSerial: for every shard count, CanopiesContext
// returns byte-identical canopies to the serial run — on the seed
// corpora and with the size bound active.
func TestShardedIdenticalToSerial(t *testing.T) {
	for _, preset := range []datagen.Config{
		datagen.HEPTHLike(0.25, 42),
		datagen.DBLPLike(0.25, 42),
	} {
		d := datagen.MustGenerate(preset)
		names := make([]string, d.NumRefs())
		for i := range d.Refs {
			names[i] = d.Refs[i].Name
		}
		for _, cfg := range []Config{DefaultConfig(), {Loose: 0.42, Tight: 0.85, Q: 2, MaxNeighborhood: 8}} {
			serial, err := CanopiesContext(context.Background(), names, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 3, 7, 16, 0} {
				sharded, err := CanopiesContext(context.Background(), names, cfg, shards)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sharded, serial) {
					t.Fatalf("%s shards=%d maxNbr=%d: sharded canopies differ from serial",
						preset.Name, shards, cfg.MaxNeighborhood)
				}
			}
		}
	}
}

// TestBuildCoverContextShardedIdentical: the full cover (canopies +
// aligned expansion + totality patching) is shard-invariant too.
func TestBuildCoverContextShardedIdentical(t *testing.T) {
	d := datagen.MustGenerate(datagen.DBLPLike(0.25, 42))
	serial, err := BuildCoverContext(context.Background(), d, DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildCoverContext(context.Background(), d, DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sharded.Sets, serial.Sets) {
		t.Fatal("sharded cover differs from serial")
	}
}

// TestBuildCoverContextCancellation: a canceled context aborts blocking
// with ctx.Err().
func TestBuildCoverContextCancellation(t *testing.T) {
	d := datagen.MustGenerate(datagen.DBLPLike(0.2, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildCoverContext(ctx, d, DefaultConfig(), 2); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestConfigValidate: the blocking configuration rejects malformed
// thresholds and bounds.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Loose: 0, Tight: 0.5, Q: 2},
		{Loose: 1.2, Tight: 1.3, Q: 2},
		{Loose: 0.9, Tight: 0.5, Q: 2},
		{Loose: 0.4, Tight: 0.8, Q: 0},
		{Loose: 0.4, Tight: 0.8, Q: 2, MaxAligned: -1},
		{Loose: 0.4, Tight: 0.8, Q: 2, MaxNeighborhood: -3},
		{Loose: 0.4, Tight: 0.8, Q: 2, MaxNeighborhood: 1},
		{Loose: math.NaN(), Tight: 0.8, Q: 2},
		{Loose: 0.4, Tight: math.NaN(), Q: 2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// FuzzShardedCanopiesIdentical: arbitrary name lists never make sharded
// construction diverge from serial, and every record stays covered.
func FuzzShardedCanopiesIdentical(f *testing.F) {
	f.Add("Vibhor Rastogi\nV. Rastogi\nNilesh Dalvi", 3)
	f.Add("a\nb\nc\nd\ne\nf\ng", 2)
	f.Add("John Smith\nJon Smith\nJohn Smyth\nJ. Smith\nJane Smith\nJohn Smith", 5)
	f.Add("", 4)
	f.Add("single", 7)
	f.Fuzz(func(t *testing.T, blob string, shards int) {
		if shards < 2 {
			shards = 2
		}
		if shards > 32 {
			shards = 32
		}
		names := strings.Split(blob, "\n")
		if len(names) > 200 {
			names = names[:200]
		}
		for _, cfg := range []Config{DefaultConfig(), {Loose: 0.3, Tight: 0.6, Q: 2, MaxNeighborhood: 3}} {
			serial, err := CanopiesContext(context.Background(), names, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := CanopiesContext(context.Background(), names, cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sharded, serial) {
				t.Fatalf("shards=%d cfg=%+v: sharded %v != serial %v", shards, cfg, sharded, serial)
			}
			covered := make([]bool, len(names))
			for _, s := range serial {
				for _, e := range s {
					covered[e] = true
				}
			}
			for i := range covered {
				if !covered[i] {
					t.Fatalf("record %d (%q) uncovered (cfg %+v)", i, names[i], cfg)
				}
			}
		}
	})
}

// The size-bound invariant at pipeline defaults, printed for the bench
// trajectory: neighborhoods stay small on both regimes.
func TestNeighborhoodSizesReported(t *testing.T) {
	for _, preset := range []datagen.Config{
		datagen.HEPTHLike(0.25, 42), datagen.DBLPLike(0.25, 42),
	} {
		d := datagen.MustGenerate(preset)
		stats := BuildCover(d, DefaultConfig()).ComputeStats()
		t.Log(fmt.Sprintf("%s: %s", preset.Name, stats))
		if stats.MaxSize <= 1 {
			t.Errorf("%s: degenerate cover %s", preset.Name, stats)
		}
	}
}
