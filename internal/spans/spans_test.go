package spans

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"paralleltape/internal/trace"
)

// ev builds a trace event with the recorder's unset-index conventions
// (-1 for absent lib/drive/tape/req).
func ev(t float64, kind trace.Kind) trace.Event {
	return trace.Event{T: t, Kind: kind, Lib: -1, Drive: -1, Tape: -1, Req: -1}
}

// healthyStream is a hand-written single-request trace: a switch chain on
// drive L0.D1 (robot contention included) followed by a serve of the
// mounted tape. Every timestamp is chosen so the critical path must chain
// switch → serve with no gaps.
func healthyStream() []trace.Event {
	const s1, s2 = int64(1<<32 | 1), int64(1<<32 | 2)
	sub := ev(0, trace.KindSubmit)
	sub.Req = 7
	sub.Bytes = 300
	rw := ev(0, trace.KindRewind)
	rw.Lib, rw.Drive, rw.Req, rw.Span = 0, 1, 7, s1
	grant := ev(0, trace.KindResourceGrant)
	grant.Name = "robot-0"
	rb := ev(0, trace.KindRobot)
	rb.Lib, rb.Drive, rb.Tape, rb.Req, rb.Span, rb.Dur = 0, 1, 3, 7, s1, 2
	rel := ev(2, trace.KindResourceRelease)
	rel.Name, rel.Dur = "robot-0", 2
	ld := ev(2, trace.KindLoad)
	ld.Lib, ld.Drive, ld.Tape, ld.Req, ld.Span, ld.Dur = 0, 1, 3, 7, s1, 3
	mt := ev(5, trace.KindMounted)
	mt.Lib, mt.Drive, mt.Tape, mt.Req, mt.Span, mt.Dur = 0, 1, 3, 7, s1, 5
	ss := ev(5, trace.KindServeStart)
	ss.Lib, ss.Drive, ss.Tape, ss.Req, ss.Span, ss.Bytes = 0, 1, 3, 7, s2, 300
	sk := ev(5, trace.KindSeek)
	sk.Lib, sk.Drive, sk.Tape, sk.Req, sk.Span, sk.Dur = 0, 1, 3, 7, s2, 1
	tf := ev(5, trace.KindTransfer)
	tf.Lib, tf.Drive, tf.Tape, tf.Req, tf.Span, tf.Dur = 0, 1, 3, 7, s2, 10
	se := ev(16, trace.KindServeEnd)
	se.Lib, se.Drive, se.Tape, se.Req, se.Span, se.Dur = 0, 1, 3, 7, s2, 11
	latch := ev(16, trace.KindLatchOpen)
	latch.Name = "req-7"
	cp := ev(16, trace.KindComplete)
	cp.Req, cp.Bytes, cp.Dur = 7, 300, 16
	return []trace.Event{sub, rw, grant, rb, rel, ld, mt, ss, sk, tf, se, latch, cp}
}

func TestBuildHealthyRequest(t *testing.T) {
	events := healthyStream()
	s, err := Build(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Requests) != 1 || len(s.Boundary) != 0 {
		t.Fatalf("requests %d boundary %d", len(s.Requests), len(s.Boundary))
	}
	r := s.Requests[0]
	if r.ID != 7 || r.Submit != 0 || r.End != 16 || r.Response != 16 || r.Bytes != 300 {
		t.Errorf("request header: %+v", r)
	}
	// The latch-open marker is tallied separately, outside the analysis.
	if r.Events != len(events)-1 || s.Latches != 1 {
		t.Errorf("claimed %d events + %d latches, stream has %d", r.Events, s.Latches, len(events))
	}
	if len(r.Ops) != 2 {
		t.Fatalf("ops: %d", len(r.Ops))
	}
	sw, sv := r.Ops[0], r.Ops[1]
	if sw.Serve || !sw.Mounted || sw.Start != 0 || sw.End != 5 || sw.Tape != 3 {
		t.Errorf("switch op: %+v", sw)
	}
	if !sv.Serve || !sv.Done || sv.Start != 5 || sv.End != 16 || sv.Bytes != 300 {
		t.Errorf("serve op: %+v", sv)
	}
	if len(r.Contention) != 2 {
		t.Errorf("contention events: %d", len(r.Contention))
	}
	// Critical path: switch then serve, no gaps, covering [0, 16].
	if len(r.Critical) != 2 || r.Critical[0].Op != sw || r.Critical[1].Op != sv {
		t.Fatalf("critical path: %+v", r.Critical)
	}
	want := [NumPhases]float64{}
	want[PhaseRobotMove] = 2
	want[PhaseLoad] = 3
	want[PhaseSeek] = 1
	want[PhaseTransfer] = 10
	if r.PhaseTotals != want {
		t.Errorf("phase totals = %v, want %v", r.PhaseTotals, want)
	}
	if sum := phaseSum(r); math.Abs(sum-r.Wall()) > 1e-9 {
		t.Errorf("phase attribution sums to %v, wall is %v", sum, r.Wall())
	}
}

// phaseSum adds up a request's phase attribution.
func phaseSum(r *Request) float64 {
	var s float64
	for _, v := range r.PhaseTotals {
		s += v
	}
	return s
}

// degradedStream extends the synthetic scenario with a mid-switch drive
// failure, a retry edge, and a timeout: switch span s1 on L0.D0 dies at
// t=4, its group is re-dispatched after a 30 s backoff as switch s2 +
// serve s3 on L0.D1, and the request times out at t=50 before finishing
// at t=55.
func degradedStream() []trace.Event {
	const s1, s2, s3 = int64(1<<32 | 1), int64(2<<32 | 1), int64(2<<32 | 2)
	sub := ev(0, trace.KindSubmit)
	sub.Req = 9
	sub.Bytes = 400
	rw1 := ev(0, trace.KindRewind)
	rw1.Lib, rw1.Drive, rw1.Req, rw1.Span = 0, 0, 9, s1
	df := ev(4, trace.KindDriveFailed)
	df.Lib, df.Drive, df.Tape, df.Req, df.Span = 0, 0, 3, 9, s1
	rt := ev(4, trace.KindOpRetried)
	rt.Lib, rt.Tape, rt.Req, rt.Span, rt.Queue, rt.Dur = 0, 3, 9, s1, 1, 30
	rw2 := ev(34, trace.KindRewind)
	rw2.Lib, rw2.Drive, rw2.Req, rw2.Span = 0, 1, 9, s2
	rb := ev(34, trace.KindRobot)
	rb.Lib, rb.Drive, rb.Tape, rb.Req, rb.Span, rb.Dur = 0, 1, 3, 9, s2, 2
	ld := ev(36, trace.KindLoad)
	ld.Lib, ld.Drive, ld.Tape, ld.Req, ld.Span, ld.Dur = 0, 1, 3, 9, s2, 3
	mt := ev(39, trace.KindMounted)
	mt.Lib, mt.Drive, mt.Tape, mt.Req, mt.Span, mt.Dur = 0, 1, 3, 9, s2, 5
	ss := ev(39, trace.KindServeStart)
	ss.Lib, ss.Drive, ss.Tape, ss.Req, ss.Span, ss.Bytes = 0, 1, 3, 9, s3, 400
	sk := ev(39, trace.KindSeek)
	sk.Lib, sk.Drive, sk.Tape, sk.Req, sk.Span, sk.Dur = 0, 1, 3, 9, s3, 2
	tf := ev(39, trace.KindTransfer)
	tf.Lib, tf.Drive, tf.Tape, tf.Req, tf.Span, tf.Dur = 0, 1, 3, 9, s3, 14
	to := ev(50, trace.KindRequestTimedOut)
	to.Req, to.Bytes, to.Dur = 9, 100, 50
	se := ev(55, trace.KindServeEnd)
	se.Lib, se.Drive, se.Tape, se.Req, se.Span, se.Dur = 0, 1, 3, 9, s3, 16
	cp := ev(55, trace.KindComplete)
	cp.Req, cp.Bytes, cp.Dur = 9, 400, 50
	return []trace.Event{sub, rw1, df, rt, rw2, rb, ld, mt, ss, sk, tf, to, se, cp}
}

func TestBuildDegradedRequest(t *testing.T) {
	s, err := Build(degradedStream())
	if err != nil {
		t.Fatal(err)
	}
	r := s.Requests[0]
	if !r.TimedOut || r.Response != 50 || r.BytesServed != 100 || r.End != 55 {
		t.Errorf("timeout accounting: %+v", r)
	}
	if len(r.Ops) != 3 {
		t.Fatalf("ops: %d", len(r.Ops))
	}
	failed, retry := r.Ops[0], r.Ops[1]
	if !failed.Failed || failed.End != 4 || !failed.Retried {
		t.Errorf("failed op: %+v", failed)
	}
	if failed.TargetTape() != 3 {
		t.Errorf("aborted op's retry edge should reveal its tape, got %d", failed.TargetTape())
	}
	if retry.RetryOf != failed || retry.Attempt != 1 {
		t.Errorf("retry link: RetryOf=%v Attempt=%d", retry.RetryOf, retry.Attempt)
	}
	// Critical path: failed switch [0,4] → retry-wait gap [4,34] → switch
	// [34,39] → serve [39,55].
	if len(r.Critical) != 4 {
		t.Fatalf("critical steps: %+v", r.Critical)
	}
	gapStep := r.Critical[1]
	if gapStep.Op != nil || gapStep.Phase != PhaseRetryWait || gapStep.Start != 4 || gapStep.End != 34 {
		t.Errorf("retry gap step: %+v", gapStep)
	}
	if r.PhaseTotals[PhaseRetryWait] != 30 {
		t.Errorf("retry-wait attribution = %v", r.PhaseTotals[PhaseRetryWait])
	}
	if sum := phaseSum(r); math.Abs(sum-r.Wall()) > 1e-9 {
		t.Errorf("phase attribution sums to %v, wall is %v", sum, r.Wall())
	}
}

func TestBuildRejectsMalformedStreams(t *testing.T) {
	healthy := healthyStream()
	cases := map[string][]trace.Event{
		"span outside window":    healthy[1:],
		"unterminated window":    healthy[:len(healthy)-1],
		"double submit":          append([]trace.Event{healthy[0]}, healthy...),
		"complete without open":  {healthy[len(healthy)-1]},
		"request event mismatch": nil,
	}
	wrongReq := make([]trace.Event, len(healthy))
	copy(wrongReq, healthy)
	wrongReq[1].Req = 8
	cases["request event mismatch"] = wrongReq
	for name, events := range cases {
		if _, err := Build(events); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBuildBoundaryEvents(t *testing.T) {
	fail := ev(100, trace.KindDriveFailed)
	fail.Lib, fail.Drive = 1, 1
	events := append(healthyStream(), fail)
	s, err := Build(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Boundary) != 1 || s.Boundary[0].Kind != trace.KindDriveFailed {
		t.Errorf("boundary bucket: %+v", s.Boundary)
	}
	if claimed := s.Requests[0].Events + len(s.Boundary) + s.Latches; claimed != len(events) {
		t.Errorf("claimed %d of %d events", claimed, len(events))
	}
}

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.50, 5}, {0.95, 10}, {0.99, 10}, {0.10, 1}} {
		if got := percentile(samples, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}

func TestAggregateAndShares(t *testing.T) {
	s, err := Build(append(healthyStream(), degradedStream()...))
	if err != nil {
		t.Fatal(err)
	}
	b := Aggregate(s)
	if b.Requests != 2 || b.TimedOut != 1 || b.Events != s.Events {
		t.Errorf("breakdown header: %+v", b)
	}
	if b.Horizon != 55 {
		t.Errorf("horizon = %v", b.Horizon)
	}
	if b.Response.Count != 2 || b.Response.Max != 50 || b.Response.Total != 66 {
		t.Errorf("response dist: %+v", b.Response)
	}
	var shares float64
	for _, p := range AllPhases() {
		shares += b.Share(p)
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("phase shares sum to %v, want 1", shares)
	}
}

func TestSlowestOrdering(t *testing.T) {
	s, err := Build(append(healthyStream(), degradedStream()...))
	if err != nil {
		t.Fatal(err)
	}
	slow := s.Slowest(5)
	if len(slow) != 2 || slow[0].ID != 9 || slow[1].ID != 7 {
		t.Fatalf("slowest: %+v", slow)
	}
	if got := s.Slowest(1); len(got) != 1 || got[0].ID != 9 {
		t.Errorf("slowest(1): %+v", got)
	}
}

func TestTimelineSeries(t *testing.T) {
	s, err := Build(healthyStream())
	if err != nil {
		t.Fatal(err)
	}
	pts := s.QueueDepthPoints()
	if len(pts) != 2 || pts[0].Name != "robot-0" || pts[0].T != 0 || pts[1].T != 2 {
		t.Errorf("queue points: %+v", pts)
	}
	busy := s.BusyIntervals()
	// Two drive ops + one robot hold.
	if len(busy) != 3 {
		t.Fatalf("busy intervals: %+v", busy)
	}
	if busy[0].Name != "L0.D1" || busy[0].Start != 0 || busy[0].End != 5 {
		t.Errorf("first interval: %+v", busy[0])
	}
	if busy[2].Name != "robot-0" || busy[2].Start != 0 || busy[2].End != 2 {
		t.Errorf("robot interval: %+v", busy[2])
	}
}

func TestRenderersDeterministic(t *testing.T) {
	s, err := Build(append(healthyStream(), degradedStream()...))
	if err != nil {
		t.Fatal(err)
	}
	b := Aggregate(s)
	render := func() (string, string, string, string) {
		var t1, t2, t3, t4 bytes.Buffer
		if err := WriteBreakdown(&t1, b); err != nil {
			t.Fatal(err)
		}
		if err := WriteBreakdownCSV(&t2, b); err != nil {
			t.Fatal(err)
		}
		if err := WriteSlowest(&t3, s, 2); err != nil {
			t.Fatal(err)
		}
		if err := WriteTimelineCSV(&t4, s); err != nil {
			t.Fatal(err)
		}
		return t1.String(), t2.String(), t3.String(), t4.String()
	}
	a1, a2, a3, a4 := render()
	b1, b2, b3, b4 := render()
	if a1 != b1 || a2 != b2 || a3 != b3 || a4 != b4 {
		t.Fatal("renderers not deterministic")
	}
	for frag, out := range map[string]string{
		"requests: 2":    a1,
		"retry-wait":     a1,
		"phase,total_s":  a2,
		"request 9":      a3,
		"TIMED-OUT":      a3,
		"series,name":    a4,
		"queue,robot-0":  a4,
		"busy,L0.D1":     a4,
		"critical path:": a3,
		"drive-failed":   a3,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendered output missing %q:\n%s", frag, out)
		}
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseQueue.String() != "queue" || PhaseStall.String() != "repair-stall" {
		t.Error("phase names wrong")
	}
	if Phase(-1).String() != "unknown" || NumPhases.String() != "unknown" {
		t.Error("out-of-range phase should be unknown")
	}
	if len(AllPhases()) != int(NumPhases) {
		t.Error("AllPhases incomplete")
	}
}
