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

// TestContentionSlicesDoNotAlias checks that each request's Contention,
// a window into one slice Build shares across the session, is capped at
// its length: appending to one request's events must leave the next
// request's unchanged.
func TestContentionSlicesDoNotAlias(t *testing.T) {
	events, _ := runScenario(t, false)
	s, err := spans.Build(events)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := 0; i+1 < len(s.Requests); i++ {
		a, b := s.Requests[i], s.Requests[i+1]
		if len(a.Contention) == 0 || len(b.Contention) == 0 {
			continue
		}
		before := append([]trace.Event(nil), b.Contention...)
		a.Contention = append(a.Contention, trace.Event{Kind: trace.KindResourceWait, Queue: 99})
		for j := range before {
			if b.Contention[j] != before[j] {
				t.Fatalf("appending to request %d's contention changed request %d's event %d", a.ID, b.ID, j)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no two consecutive requests with contention events")
	}
}

// TestBuildAllocsPerRequest bounds Build's allocations per request. Ops
// come from shared slabs, one map serves every request and contention
// events share one session slice, so what remains per request is the
// Request and the growth of its Ops and Critical slices: 7.5 allocations
// per request of this scenario, against 16.4 when Build allocated a map
// per request and each Op on its own.
func TestBuildAllocsPerRequest(t *testing.T) {
	events, ms := runScenario(t, false)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := spans.Build(events); err != nil {
			t.Fatal(err)
		}
	})
	if perReq := allocs / float64(len(ms)); perReq > 10 {
		t.Errorf("Build allocates %.1f times per request, want at most 10", perReq)
	}
}
