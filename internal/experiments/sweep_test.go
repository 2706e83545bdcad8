package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/tape"
)

// sweepJSON renders the full sweep (every exhibit) to one JSON blob — the
// byte-level identity carrier for the determinism tests.
func sweepJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	reps, err := All(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, rep := range reps {
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSweepDeterminismAcrossWorkers is the sweep-level half of the
// determinism contract: the full Quick sweep's report JSON must be
// byte-identical at every worker count — run parallelism may not change a
// single byte of any exhibit. Request count is reduced to keep the
// sweeps inside the test budget; every exhibit still runs.
//
// The serial sweep is also compared with a committed golden, so any change
// to any exhibit shows up as a diff of testdata/. The race build runs
// fewer requests and has a golden of its own. UPDATE_GOLDEN=1 (or `make
// golden`) rewrites the golden of the build that runs.
func TestSweepDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("3 full sweeps; skipped in -short")
	}
	cfg := Quick()
	cfg.Requests = 8
	cfg.Seeds = 1
	workerCounts := []int{1, runtime.GOMAXPROCS(0)}
	if raceEnabled {
		// The race detector slows the sweep ~10x; one parallel sweep
		// against the serial baseline still crosses every goroutine
		// boundary the full matrix does.
		cfg.Requests = 4
		workerCounts = []int{runtime.GOMAXPROCS(0)}
	}

	base := cfg
	base.Workers = 1
	want := sweepJSON(t, base)
	golden := filepath.Join("testdata", fmt.Sprintf("sweep_quick_r%d.json", cfg.Requests))
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, want, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("sweep golden updated (%d bytes)", len(want))
	} else if prev, err := os.ReadFile(golden); err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	} else if !bytes.Equal(want, prev) {
		t.Errorf("serial sweep JSON differs from %s (%d vs %d bytes): an exhibit changed.\n"+
			"If intentional, regenerate with UPDATE_GOLDEN=1 and record the change in EXPERIMENTS.md.",
			golden, len(want), len(prev))
	}

	for _, workers := range workerCounts {
		c := cfg
		c.Workers = workers
		if got := sweepJSON(t, c); !bytes.Equal(got, want) {
			t.Errorf("sweep JSON diverges at workers=%d (%d vs %d bytes)", workers, len(got), len(want))
		}
	}
}

// countingScheme wraps a placement scheme and counts Place invocations; it
// is a comparable value, so the placement cache can key on it.
type countingScheme struct {
	placement.Scheme
	calls *atomic.Int64
}

func (cs countingScheme) Place(w *model.Workload, hw tape.Hardware) (*placement.Result, error) {
	cs.calls.Add(1)
	return cs.Scheme.Place(w, hw)
}

// TestPlacementMemoized checks that runs sharing a (scheme, workload,
// hardware) triple within one RunAll sweep compute the placement once and
// still produce identical rows — the scheduler study's shape, where nine
// policy points share one placement.
func TestPlacementMemoized(t *testing.T) {
	cfg := quickCfg()
	cfg.Requests = 5
	w, err := cfg.baseWorkload(0)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	scheme := countingScheme{Scheme: placement.ParallelBatch{M: cfg.M, K: cfg.K}, calls: &calls}
	var runs []Run
	for i := 0; i < 6; i++ {
		runs = append(runs, Run{
			Label:  fmt.Sprintf("point-%d", i),
			Scheme: scheme,
			W:      w,
			HW:     cfg.HW,
			X:      float64(i),
		})
	}
	cfg.Workers = 4
	rows := cfg.RunAll(runs)
	if got := calls.Load(); got != 1 {
		t.Errorf("Place called %d times for 6 identical runs, want 1", got)
	}
	for i, r := range rows {
		if r.Err != nil {
			t.Fatalf("row %d: %v", i, r.Err)
		}
		if r.Stats != rows[0].Stats {
			t.Errorf("row %d stats diverge from row 0 despite identical runs", i)
		}
	}
}

// TestPlacementCacheDistinguishesKeys checks the cache does not conflate
// distinct schemes or hardware: different keys recompute.
func TestPlacementCacheDistinguishesKeys(t *testing.T) {
	cfg := quickCfg()
	cfg.Requests = 5
	w, err := cfg.baseWorkload(0)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	hw2 := cfg.HW
	hw2.DrivesPerLib++
	runs := []Run{
		{Label: "a", Scheme: countingScheme{Scheme: placement.ParallelBatch{M: 2, K: cfg.K}, calls: &calls}, W: w, HW: cfg.HW},
		{Label: "b", Scheme: countingScheme{Scheme: placement.ParallelBatch{M: 3, K: cfg.K}, calls: &calls}, W: w, HW: cfg.HW},
		{Label: "c", Scheme: countingScheme{Scheme: placement.ParallelBatch{M: 2, K: cfg.K}, calls: &calls}, W: w, HW: hw2},
	}
	rows := cfg.RunAll(runs)
	for i, r := range rows {
		if r.Err != nil {
			t.Fatalf("row %d: %v", i, r.Err)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("Place called %d times for 3 distinct keys, want 3", got)
	}
}
