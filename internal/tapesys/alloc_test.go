package tapesys

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/tape"
	"paralleltape/internal/trace"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

// TestSubmitSteadyStateAllocBudget pins the submit path's allocation
// contract: with no recorder attached and the system's scratch warmed to
// the workload's high-water mark, Submit performs no heap allocations.
// Options.Shards is accepted and ignored, so every value — including the
// 2 older callers still pass — must take the same zero-allocation path.
// The traced cases attach an in-memory trace buffer and reset it after
// each request: once the buffer has grown to the largest request's
// events, recording allocates nothing either.
// Every predefined request is submitted once first: a request's first
// submission records its grouping (catalog.Grouper's memo), and
// AllocsPerRun truncates its average, so a few first-seen requests in the
// measured loop would read as 0.
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
	// resilient-idle options exercise the deadline bookkeeping and the
	// fault-path guards with faults disabled, and must fit the same
	// budget — zero extra allocations over the healthy configuration.
	cases := []struct {
		name   string
		opts   Options
		traced bool
	}{
		{"healthy", Options{}, false},
		{"resilient-idle", Options{RequestTimeout: 1e9, RetryBackoff: 30}, false},
		{"traced", Options{}, true},
	}
	for _, c := range cases {
		for _, shards := range []int{0, 1, 2, 4} {
			opts := c.opts
			opts.Shards = shards
			t.Run(fmt.Sprintf("%s/shards=%d", c.name, shards), func(t *testing.T) {
				s, err := NewWithOptions(hw, pr, opts)
				if err != nil {
					t.Fatal(err)
				}
				var buf *trace.Buffer
				if c.traced {
					buf = s.EnableTrace(0)
				}
				submit := func(r *model.Request) error {
					_, err := s.Submit(r)
					if buf != nil {
						buf.Reset()
					}
					return err
				}
				stream, err := workload.NewRequestStream(w, rng.New(99))
				if err != nil {
					t.Fatal(err)
				}
				// Warm-up: remember every request's grouping, then grow the
				// grouping arena, pending queues, event heap, operation
				// pools and trace buffer to this workload's high-water mark.
				for i := range w.Requests {
					if err := submit(&w.Requests[i]); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 50; i++ {
					if err := submit(stream.Next()); err != nil {
						t.Fatal(err)
					}
				}
				var submitErr error
				allocs := testing.AllocsPerRun(100, func() {
					if err := submit(stream.Next()); err != nil {
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
// placement state without regrowing scratch: after one run, a Reset onto
// the same placement allocates nothing, and neither does the replay of the
// same request stream after it — the Grouper, its arena and its memo of
// every request's grouping survive. A Reset onto a placement with another
// catalog must give the metrics of a fresh System.
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
	pr, err := placement.ParallelBatch{M: 1}.Place(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	other, err := placement.ObjectProbability{}.Place(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(hw, pr)
	if err != nil {
		t.Fatal(err)
	}
	// Other goroutines must not allocate while the counters are read.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	mallocs := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	// run submits 30 requests of a fixed stream and returns their metrics
	// and the heap allocations the Submit loop made.
	run := func(s *System) ([]RequestMetrics, uint64) {
		stream, err := workload.NewRequestStream(w, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]RequestMetrics, 30)
		before := mallocs()
		for i := range out {
			if out[i], err = s.Submit(stream.Next()); err != nil {
				t.Fatal(err)
			}
		}
		return out, mallocs() - before
	}
	first, _ := run(s)
	before := mallocs()
	if err := s.Reset(pr); err != nil {
		t.Fatal(err)
	}
	if n := mallocs() - before; n != 0 {
		t.Errorf("Reset onto the same placement allocated %d times, want 0", n)
	}
	second, n := run(s)
	if n != 0 {
		t.Errorf("replay after Reset allocated %d times, want 0", n)
	}
	if !slices.Equal(first, second) {
		t.Fatal("metrics differ before and after Reset; Reset must replay the initial state exactly")
	}
	if s.Now() == 0 {
		t.Fatal("clock did not advance on the replayed run")
	}

	if err := s.Reset(other); err != nil {
		t.Fatal(err)
	}
	got, _ := run(s)
	fresh, err := New(hw, other)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := run(fresh)
	if !slices.Equal(got, want) {
		t.Fatal("Reset onto another catalog differs from a fresh System on it")
	}
}
