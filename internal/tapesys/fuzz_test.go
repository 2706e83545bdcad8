package tapesys

import (
	"math"
	"testing"

	"paralleltape/internal/dist"
	"paralleltape/internal/faults"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/workload"
)

// FuzzFaultedRequestsComplete drives the stream test system under a
// stochastic fault profile drawn from the fuzz input and requires every
// request to come back: Submit returns an error for a request that never
// completes, and the engine's event limit turns a runaway event loop into
// a panic instead of a hang. A timed-out request counts as come back; its
// response is then the timeout.
//
// Run it beyond the seed corpus with
//
//	go test ./internal/tapesys -run '^$' -fuzz FuzzFaultedRequestsComplete -fuzztime 60s
func FuzzFaultedRequestsComplete(f *testing.F) {
	// chaosTestProfile's point, then a dense-failure point with a timeout.
	f.Add(uint64(77), 2000.0, 300.0, 3000.0, uint8(0))
	f.Add(uint64(53), 50.0, 1e4, 1000.0, uint8(1))

	hw, w := streamTestWorkload(f)
	schemes := []placement.Scheme{
		placement.ParallelBatch{M: 2},
		placement.ObjectProbability{},
		placement.ClusterProbability{},
		placement.RoundRobin{},
	}
	placed := make([]*placement.Result, len(schemes))
	for i, s := range schemes {
		pr, err := s.Place(w, hw)
		if err != nil {
			f.Fatalf("%s: %v", s.Name(), err)
		}
		placed[i] = pr
	}

	f.Fuzz(func(t *testing.T, seed uint64, mtbf, repair, timeout float64, scheme uint8) {
		if !(mtbf >= 50 && mtbf <= 1e6) || !(repair >= 1 && repair <= 1e5) || !(timeout >= 0 && timeout <= 1e5) {
			t.Skip("outside the fuzzed fault ranges")
		}
		pr := placed[int(scheme)%len(placed)]
		s, err := NewWithOptions(hw, pr, Options{
			Faults: &faults.Profile{
				Seed:              seed,
				DriveMTBF:         mtbf,
				DriveRepair:       dist.Exponential{Mean: repair},
				RobotMTBF:         10 * mtbf,
				MediaErrorPerRead: 0.01,
			},
			RequestTimeout: timeout,
			RetryBackoff:   30,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.eng.SetEventLimit(1 << 22)
		stream, err := workload.NewRequestStream(w, rng.New(23))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			m, err := s.Submit(stream.Next())
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if math.IsNaN(m.Response) || m.Response < 0 || (timeout > 0 && m.Response > timeout) {
				t.Fatalf("request %d: response %v s with timeout %v s", i, m.Response, timeout)
			}
		}
	})
}
