package tapesys

// Degraded-mode tests for the fault-injection and recovery layer
// (recovery.go + internal/faults): a golden JSONL trace pinning the
// mid-request failure/retry event schema, a bit-exact Reset replay under a
// stochastic fault profile, request-timeout partial-result accounting, and
// the FailDrive dead-library semantics. The golden file
// regenerates with UPDATE_GOLDEN=1 go test ./internal/tapesys -run
// FaultGolden; update docs/RESILIENCE.md when the schema changes.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"paralleltape/internal/dist"
	"paralleltape/internal/faults"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/tape"
	"paralleltape/internal/trace"
	"paralleltape/internal/workload"
)

// faultGoldenRun executes a fully scripted degraded scenario and returns
// its JSONL trace plus the per-request metrics. The three requests walk
// through every resilience event kind:
//
//	req 0: the serving drive fails mid-transfer at t=4 (drive-failed),
//	       the group is re-dispatched after backoff (op-retried), the
//	       surviving drive's switch hits a robot outage (robot-failed /
//	       robot-repaired), and delivery lands past the 28 s deadline
//	       (request-timeout).
//	req 1: the second drive fails two seconds into the transfer while
//	       the first is still down, stalling the library until the
//	       scripted repair returns it to service (drive-repaired); the
//	       re-read then hits a scripted permanent media error at half
//	       transfer (media-error), abandoning the 50 B group.
//	req 2: the surviving drive switches back to tape 0 and delivers
//	       inside the deadline — recovery leaves a consistent state.
func faultGoldenRun(t *testing.T) ([]byte, []RequestMetrics) {
	t.Helper()
	hw := testHW()
	pl := manualPlacement(t, hw, 2,
		map[tape.Key][]objSpec{
			{Library: 0, Index: 0}: {{0, 100}},
			{Library: 0, Index: 2}: {{1, 50}},
		},
		[][]int{{0, -1}, {-1, -1}}, nil, nil)
	prof := &faults.Profile{
		DriveOutages: []faults.DriveOutage{
			{Library: 0, Drive: 0, At: 4, Duration: 60},
			{Library: 0, Drive: 1, At: 44, Duration: 10},
		},
		RobotOutages: []faults.RobotOutage{{Library: 0, At: 5, Duration: 10}},
		MediaFaults:  []faults.MediaFault{{Library: 0, Tape: 2, Read: 2, Frac: 0.5}},
	}
	s, err := NewWithOptions(hw, pl, Options{
		Faults:         prof,
		RequestTimeout: 28,
		RetryBackoff:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := s.EnableTrace(0)
	var ms []RequestMetrics
	for i, rq := range []*model.Request{req(0, 0), req(1, 1), req(2, 0)} {
		m, err := s.Submit(rq)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		ms = append(ms, m)
	}
	var out bytes.Buffer
	if err := trace.WriteJSONL(&out, buf.Events); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), ms
}

func TestFaultGoldenTraceJSONL(t *testing.T) {
	got, ms := faultGoldenRun(t)
	golden := filepath.Join("testdata", "trace_faults_golden.jsonl")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("fault golden trace updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("degraded trace differs from golden file — the resilience schema changed.\n"+
			"If intentional, regenerate with UPDATE_GOLDEN=1 and update docs/RESILIENCE.md.\ngot:\n%s\nwant:\n%s",
			got, want)
	}
	// The narrative above is load-bearing: pin the metric-level outcomes
	// so a silent behavior change cannot hide behind a regenerated file.
	if ms[0].Retries != 1 || !ms[0].TimedOut || ms[0].Response != 28 || ms[0].BytesServed != 0 {
		t.Errorf("request 0: want 1 retry, timed out at 28 s with 0 B delivered; got %+v", ms[0])
	}
	if ms[1].Retries != 1 || ms[1].MediaErrors != 1 || ms[1].FailedGroups != 1 ||
		ms[1].FailedBytes != 50 || ms[1].BytesServed != 0 || !ms[1].TimedOut {
		t.Errorf("request 1: want one retry then a 50 B media-error loss past the deadline; got %+v", ms[1])
	}
	if ms[2].Retries != 0 || ms[2].BytesServed != 100 || ms[2].TimedOut {
		t.Errorf("request 2: want fully delivered in time; got %+v", ms[2])
	}
}

func TestFaultTraceDeterminism(t *testing.T) {
	a, _ := faultGoldenRun(t)
	b, _ := faultGoldenRun(t)
	if !bytes.Equal(a, b) {
		t.Error("two identical degraded runs emitted different traces")
	}
}

// chaosTestProfile is the stochastic profile of the Reset replay test:
// aggressive enough that the session sees drive failures, robot outages,
// media errors, and retries on every library.
func chaosTestProfile() *faults.Profile {
	return &faults.Profile{
		Seed:              77,
		DriveMTBF:         2000,
		DriveRepair:       dist.Exponential{Mean: 300},
		RobotMTBF:         8000,
		RobotRepair:       dist.Exponential{Mean: 120},
		MediaErrorPerRead: 0.02,
	}
}

// TestFaultResetReplays verifies System.Reset also rewinds the injector:
// two passes over the same stream on one faulted system are identical.
func TestFaultResetReplays(t *testing.T) {
	hw, w := streamTestWorkload(t)
	pb := placement.ParallelBatch{M: 2}
	pr, err := pb.Place(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(hw, pr, Options{
		Faults: chaosTestProfile(), RequestTimeout: 3000, RetryBackoff: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	pass := func() []RequestMetrics {
		stream, err := workload.NewRequestStream(w, rng.New(23))
		if err != nil {
			t.Fatal(err)
		}
		var out []RequestMetrics
		for i := 0; i < 30; i++ {
			m, err := s.Submit(stream.Next())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, m)
		}
		return out
	}
	first := pass()
	if err := s.Reset(pr); err != nil {
		t.Fatal(err)
	}
	second := pass()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("request %d metrics differ after Reset under faults:\n  %+v\n  %+v",
				i, first[i], second[i])
		}
	}
}

// TestRequestTimeoutPartialAccounting pins the deadline contract: payload
// delivered by the deadline counts, later payload does not, the response
// is clamped to the timeout, and the mechanical work still runs to
// completion so the next request starts from a consistent state.
func TestRequestTimeoutPartialAccounting(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 2,
		map[tape.Key][]objSpec{
			{Library: 0, Index: 0}: {{0, 100}}, // mounted: serves in 10 s
			{Library: 1, Index: 0}: {{1, 200}}, // switch 2+3 then 20 s transfer
		},
		[][]int{{0, -1}, {-1, -1}}, nil, nil)
	s, err := NewWithOptions(hw, pl, Options{RequestTimeout: 12})
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Submit(req(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !m.TimedOut || m.Response != 12 {
		t.Errorf("want TimedOut with Response clamped to 12, got %+v", m)
	}
	if m.BytesServed != 100 {
		t.Errorf("BytesServed = %d, want 100 (only the mounted group beat the deadline)", m.BytesServed)
	}
	if math.Abs(m.Goodput()-100.0/12) > 1e-9 {
		t.Errorf("Goodput = %v, want %v", m.Goodput(), 100.0/12)
	}
	// The drives finished the full transfer: the clock sits at the slow
	// group's completion, not at the deadline.
	if s.Now() != 25 {
		t.Errorf("clock = %v, want 25 (2 s move + 3 s load + 20 s transfer)", s.Now())
	}
}

// TestFailDriveDeadLibraryDegrades covers the reworked FailDrive contract:
// with fault handling active, a library whose drives are all manually
// failed no longer makes Submit error — its groups are abandoned into the
// partial-result accounting while other libraries serve normally.
func TestFailDriveDeadLibraryDegrades(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 2,
		map[tape.Key][]objSpec{
			{Library: 0, Index: 0}: {{0, 100}},
			{Library: 1, Index: 0}: {{1, 50}},
		},
		[][]int{{0, -1}, {-1, -1}}, nil, nil)
	// Any non-empty profile enables the recovery layer; schedule nothing
	// before t=1e9 so only the manual failures matter.
	prof := &faults.Profile{DriveOutages: []faults.DriveOutage{
		{Library: 0, Drive: 0, At: 1e9, Duration: 1},
	}}
	s, err := NewWithOptions(hw, pl, Options{Faults: prof})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FailDrive(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDrive(0, 1); err != nil {
		t.Fatal(err)
	}
	m, err := s.Submit(req(0, 0, 1))
	if err != nil {
		t.Fatalf("dead library must degrade, not error: %v", err)
	}
	if m.FailedGroups != 1 || m.FailedBytes != 100 {
		t.Errorf("want library 0's 100 B group abandoned, got %+v", m)
	}
	if m.BytesServed != 50 {
		t.Errorf("BytesServed = %d, want 50 from library 1", m.BytesServed)
	}
	// Manual failures are permanent: a second request degrades the same way.
	m2, err := s.Submit(req(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m2.FailedGroups != 1 || m2.BytesServed != 0 {
		t.Errorf("manual failure not permanent: %+v", m2)
	}
}

// TestDisabledProfileStaysInline checks that a zero-valued (disabled)
// profile keeps the healthy fast path: no injector is built and the run
// matches a nil-Faults run event for event.
func TestDisabledProfileStaysInline(t *testing.T) {
	hw := testHW()
	build := func(opts Options) []byte {
		pl := manualPlacement(t, hw, 1,
			map[tape.Key][]objSpec{{Library: 0, Index: 3}: {{0, 100}}},
			nil, nil, nil)
		s, err := NewWithOptions(hw, pl, opts)
		if err != nil {
			t.Fatal(err)
		}
		buf := s.EnableTrace(0)
		if _, err := s.Submit(req(0, 0)); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := trace.WriteJSONL(&out, buf.Events); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	healthy := build(Options{})
	disabled := build(Options{Faults: &faults.Profile{Seed: 99}})
	if !bytes.Equal(healthy, disabled) {
		t.Error("a disabled fault profile changed the healthy trace")
	}
}
