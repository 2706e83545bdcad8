package tapesys

import (
	"fmt"
	"testing"

	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/tape"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

// TestSubmitSteadyStateAllocBudget pins the submit path's allocation
// contract: with no recorder attached and the system's scratch warmed to
// the workload's high-water mark, Submit performs no heap allocations.
// Options.Shards is accepted and ignored, so every value — including the
// 2 older callers still pass — must take the same zero-allocation path.
func TestSubmitSteadyStateAllocBudget(t *testing.T) {
	hw := tape.DefaultHardware()
	hw.Libraries = 4
	hw.DrivesPerLib = 3
	hw.TapesPerLib = 12
	hw.Capacity = 200 * units.MB
	p := workload.Params{
		NumObjects:  300,
		NumRequests: 30,
		MinObjSize:  1 * units.MB,
		MaxObjSize:  8 * units.MB,
		ObjShape:    1.1,
		MinReqLen:   5,
		MaxReqLen:   12,
		ReqLenShape: 1,
		Alpha:       0.3,
	}
	w, err := workload.Generate(p, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	pb := placement.ParallelBatch{M: 1}
	pr, err := pb.Place(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	// The resilience knobs must cost nothing while no fault fires: the
	// second options set exercises the deadline bookkeeping and the
	// fault-path guards with faults disabled, and must fit the same
	// budget — zero extra allocations over the healthy configuration.
	optSets := map[string]Options{
		"healthy": {},
		"resilient-idle": {
			RequestTimeout: 1e9,
			RetryBackoff:   30,
		},
	}
	for name, base := range optSets {
		for _, shards := range []int{0, 1, 2, 4} {
			opts := base
			opts.Shards = shards
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				s, err := NewWithOptions(hw, pr, opts)
				if err != nil {
					t.Fatal(err)
				}
				stream, err := workload.NewRequestStream(w, rng.New(99))
				if err != nil {
					t.Fatal(err)
				}
				// Warm-up: grow the grouping arena, pending queues, event heap,
				// and operation pools to this workload's high-water mark.
				for i := 0; i < 50; i++ {
					if _, err := s.Submit(stream.Next()); err != nil {
						t.Fatal(err)
					}
				}
				var submitErr error
				allocs := testing.AllocsPerRun(100, func() {
					if _, err := s.Submit(stream.Next()); err != nil {
						submitErr = err
					}
				})
				if submitErr != nil {
					t.Fatal(submitErr)
				}
				if allocs > 0 {
					t.Fatalf("Submit steady state allocates %.1f per request, budget 0", allocs)
				}
			})
		}
	}
}

// TestResetReusesAllocations verifies System.Reset replays the initial
// placement state without regrowing scratch: a reset plus a request replay
// stays within the same per-request budget as steady-state Submit.
func TestResetReusesAllocations(t *testing.T) {
	hw := tape.DefaultHardware()
	hw.Libraries = 2
	hw.DrivesPerLib = 3
	hw.TapesPerLib = 12
	hw.Capacity = 200 * units.MB
	p := workload.Params{
		NumObjects:  300,
		NumRequests: 30,
		MinObjSize:  1 * units.MB,
		MaxObjSize:  8 * units.MB,
		ObjShape:    1.1,
		MinReqLen:   5,
		MaxReqLen:   12,
		ReqLenShape: 1,
		Alpha:       0.3,
	}
	w, err := workload.Generate(p, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	pb := placement.ParallelBatch{M: 1}
	pr, err := pb.Place(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(hw, pr)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []float64 {
		stream, err := workload.NewRequestStream(w, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, 30)
		for i := 0; i < 30; i++ {
			m, err := s.Submit(stream.Next())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, m.Response)
		}
		return out
	}
	first := run()
	if err := s.Reset(pr); err != nil {
		t.Fatal(err)
	}
	second := run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("request %d response %v before Reset, %v after; Reset must replay the initial state exactly", i, first[i], second[i])
		}
	}
	if s.Now() == 0 {
		t.Fatal("clock did not advance on the replayed run")
	}
}
