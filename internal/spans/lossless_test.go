package spans_test

// Lossless-reconstruction property test: for real simulator runs —
// healthy and fault-injected — every trace event must be claimed by
// exactly one request (or the boundary bucket), every request's phase
// attribution must sum to its mechanical span, and the rendered breakdown
// must be byte-identical across a JSONL export/parse round trip. This is
// the analyzer-level half of the determinism contract in
// docs/ARCHITECTURE.md.

import (
	"bytes"
	"math"
	"testing"

	"paralleltape/internal/dist"
	"paralleltape/internal/faults"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/spans"
	"paralleltape/internal/tape"
	"paralleltape/internal/tapesys"
	"paralleltape/internal/trace"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

// runScenario executes a fixed 60-request workload on a 4-library system
// and returns the raw trace plus the per-request metrics the simulator
// reported.
func runScenario(t *testing.T, faulty bool) ([]trace.Event, []tapesys.RequestMetrics) {
	t.Helper()
	hw := tape.DefaultHardware()
	hw.Libraries = 4
	hw.DrivesPerLib = 3
	hw.TapesPerLib = 20
	hw.Capacity = 32 * units.MB
	w, err := workload.Generate(workload.Params{
		NumObjects:  500,
		NumRequests: 40,
		MinObjSize:  1 * units.MB,
		MaxObjSize:  8 * units.MB,
		ObjShape:    1.1,
		MinReqLen:   6,
		MaxReqLen:   18,
		ReqLenShape: 1,
		Alpha:       0.3,
	}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := placement.ParallelBatch{M: 2}.Place(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	var opts tapesys.Options
	if faulty {
		opts.Faults = &faults.Profile{
			Seed:              77,
			DriveMTBF:         2000,
			DriveRepair:       dist.Exponential{Mean: 300},
			RobotMTBF:         8000,
			RobotRepair:       dist.Exponential{Mean: 120},
			MediaErrorPerRead: 0.02,
		}
		opts.RequestTimeout = 3000
		opts.RetryBackoff = 30
	}
	s, err := tapesys.NewWithOptions(hw, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	buf := s.EnableTrace(0)
	stream, err := workload.NewRequestStream(w, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	var ms []tapesys.RequestMetrics
	for i := 0; i < 60; i++ {
		m, err := s.Submit(stream.Next())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		ms = append(ms, m)
	}
	return buf.Events, ms
}

// checkLossless builds the session and asserts the reconstruction
// invariants, returning the session for further checks.
func checkLossless(t *testing.T, events []trace.Event, ms []tapesys.RequestMetrics) *spans.Session {
	t.Helper()
	s, err := spans.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	// Every event claimed exactly once: request claims plus the boundary
	// bucket partition the stream.
	claimed := len(s.Boundary) + s.Latches
	for _, r := range s.Requests {
		claimed += r.Events
	}
	if claimed != len(events) || s.Events != len(events)-s.Latches {
		t.Fatalf("claimed %d of %d events (boundary %d, latches %d)",
			claimed, len(events), len(s.Boundary), s.Latches)
	}
	if len(s.Requests) != len(ms) {
		t.Fatalf("reconstructed %d requests, simulator reported %d", len(s.Requests), len(ms))
	}
	for i, r := range s.Requests {
		// The reconstructed response must be bit-exact against the
		// simulator's own metric (floats round-trip losslessly).
		if r.Response != ms[i].Response {
			t.Errorf("request %d: reconstructed response %v, simulator reported %v",
				r.ID, r.Response, ms[i].Response)
		}
		if r.TimedOut != ms[i].TimedOut {
			t.Errorf("request %d: timeout flag mismatch", r.ID)
		}
		var sum float64
		for _, v := range r.PhaseTotals {
			sum += v
		}
		if math.Abs(sum-r.Wall()) > 1e-6*math.Max(1, r.Wall()) {
			t.Errorf("request %d: phase attribution %v != wall %v", r.ID, sum, r.Wall())
		}
		for _, op := range r.Ops {
			if op.Events == 0 {
				t.Errorf("request %d: span %d claimed no events", r.ID, op.Span)
			}
		}
	}
	return s
}

// renderAll produces every deterministic rendering of a session for
// byte-comparison.
func renderAll(t *testing.T, s *spans.Session) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := spans.WriteBreakdown(&out, spans.Aggregate(s)); err != nil {
		t.Fatal(err)
	}
	if err := spans.WriteBreakdownCSV(&out, spans.Aggregate(s)); err != nil {
		t.Fatal(err)
	}
	if err := spans.WriteSlowest(&out, s, 3); err != nil {
		t.Fatal(err)
	}
	if err := spans.WriteTimelineCSV(&out, s); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestLosslessReconstruction(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		name := "healthy"
		if faulty {
			name = "faulty"
		}
		t.Run(name, func(t *testing.T) {
			events, ms := runScenario(t, faulty)
			s := checkLossless(t, events, ms)
			if !faulty {
				return
			}
			for _, r := range s.Requests {
				for _, op := range r.Ops {
					if op.Failed || op.MediaError || op.RetryOf != nil {
						return
					}
				}
			}
			t.Fatal("fault profile too tame: no degraded operations reconstructed")
		})
	}
}

// TestJSONLRoundTripAnalysis re-analyzes a trace after an export/parse
// round trip: the breakdown must be byte-identical to the in-memory one,
// proving the file path (cmd/tapetrace) and the in-memory path (tapesim
// -explain) see the same trees.
func TestJSONLRoundTripAnalysis(t *testing.T) {
	events, ms := runScenario(t, true)
	direct := checkLossless(t, events, ms)
	var file bytes.Buffer
	if err := trace.WriteJSONL(&file, events); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.ParseJSONL(&file)
	if err != nil {
		t.Fatal(err)
	}
	reparsed := checkLossless(t, parsed, ms)
	if !bytes.Equal(renderAll(t, direct), renderAll(t, reparsed)) {
		t.Fatal("analysis differs after JSONL round trip")
	}
}
