package metrics

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"paralleltape/internal/trace"
)

// timelineEvents is a hand-built trace: one request, two drives in
// library 0 (drive 0 serves from a mounted tape, drive 1 switches first),
// with robot contention samples. Operation events carry span IDs so the
// phase-attribution section reconstructs: the critical chain is drive 1's
// switch (robot-wait 3 + move 2) into its serve (seek 0.5 + transfer 20).
func timelineEvents() []trace.Event {
	return []trace.Event{
		{T: 0, Kind: trace.KindSubmit, Lib: -1, Drive: -1, Tape: -1, Req: 0, Bytes: 300},
		{T: 0, Kind: trace.KindSeek, Lib: 0, Drive: 0, Tape: 0, Req: 0, Span: 100, Dur: 1},
		{T: 0, Kind: trace.KindTransfer, Lib: 0, Drive: 0, Tape: 0, Req: 0, Span: 100, Bytes: 100, Dur: 10},
		{T: 0, Kind: trace.KindResourceWait, Lib: -1, Drive: -1, Tape: -1, Req: -1, Queue: 1, Name: "robot-0"},
		{T: 0, Kind: trace.KindResourceGrant, Lib: -1, Drive: -1, Tape: -1, Req: -1, Name: "robot-0"},
		{T: 0, Kind: trace.KindRobot, Lib: 0, Drive: 1, Tape: 3, Req: 0, Span: 201, Dur: 2},
		{T: 2, Kind: trace.KindResourceRelease, Lib: -1, Drive: -1, Tape: -1, Req: -1, Dur: 2, Name: "robot-0"},
		{T: 2, Kind: trace.KindResourceGrant, Lib: -1, Drive: -1, Tape: -1, Req: -1, Dur: 2, Queue: 0, Name: "robot-0"},
		{T: 5, Kind: trace.KindMounted, Lib: 0, Drive: 1, Tape: 3, Req: 0, Span: 201, Dur: 5},
		{T: 5, Kind: trace.KindSeek, Lib: 0, Drive: 1, Tape: 3, Req: 0, Span: 202, Dur: 0.5},
		{T: 5, Kind: trace.KindTransfer, Lib: 0, Drive: 1, Tape: 3, Req: 0, Span: 202, Bytes: 200, Dur: 20},
		{T: 11, Kind: trace.KindServeEnd, Lib: 0, Drive: 0, Tape: 0, Req: 0, Span: 100, Bytes: 100, Dur: 11},
		{T: 25.5, Kind: trace.KindServeEnd, Lib: 0, Drive: 1, Tape: 3, Req: 0, Span: 202, Bytes: 200, Dur: 20.5},
		{T: 25.5, Kind: trace.KindComplete, Lib: -1, Drive: -1, Tape: -1, Req: 0, Bytes: 300, Dur: 25.5},
	}
}

func TestBuildTimeline(t *testing.T) {
	tl := BuildTimeline(timelineEvents())
	if tl.Requests != 1 || tl.Switches != 1 {
		t.Errorf("requests=%d switches=%d", tl.Requests, tl.Switches)
	}
	if tl.Horizon != 25.5 {
		t.Errorf("horizon = %g", tl.Horizon)
	}
	if tl.TotalSeek != 1.5 || tl.TotalTransfer != 30 || tl.TotalSwitch != 5 {
		t.Errorf("components: seek=%g transfer=%g switch=%g", tl.TotalSeek, tl.TotalTransfer, tl.TotalSwitch)
	}
	if len(tl.Drives) != 2 {
		t.Fatalf("drives = %d", len(tl.Drives))
	}
	d0, d1 := tl.Drives[0], tl.Drives[1]
	if d0.Drive != 0 || d0.Services != 1 || d0.ServeSeconds != 11 || d0.SwitchSeconds != 0 {
		t.Errorf("drive 0: %+v", d0)
	}
	if d0.IdleSeconds != 25.5-11 {
		t.Errorf("drive 0 idle = %g", d0.IdleSeconds)
	}
	if d1.Mounts != 1 || d1.SwitchSeconds != 5 || d1.ServeSeconds != 20.5 || d1.BytesMoved != 200 {
		t.Errorf("drive 1: %+v", d1)
	}
	if u := d1.Utilization(tl.Horizon); u <= 0.99 || u > 1 {
		t.Errorf("drive 1 utilization = %g", u)
	}
	if len(tl.Robots) != 1 {
		t.Fatalf("robots = %d", len(tl.Robots))
	}
	r := tl.Robots[0]
	if r.Library != 0 || r.Grants != 2 || r.MoveSeconds != 2 || r.HoldSeconds != 2 || r.WaitSeconds != 2 || r.MaxQueue != 1 {
		t.Errorf("robot: %+v", r)
	}
	if len(tl.Queues) != 1 || tl.Queues[0].Name != "robot-0" || len(tl.Queues[0].Samples) != 4 {
		t.Errorf("queues: %+v", tl.Queues)
	}
}

// TestBuildTimelineTwoRobots feeds resource events from two robots and one
// resource that is no robot, interleaved, so each name's library is
// resolved once and must still route every event to its own row.
func TestBuildTimelineTwoRobots(t *testing.T) {
	res := func(t float64, kind trace.Kind, name string, queue int, dur float64) trace.Event {
		return trace.Event{T: t, Kind: kind, Lib: -1, Drive: -1, Tape: -1, Req: -1, Queue: queue, Dur: dur, Name: name}
	}
	events := []trace.Event{
		res(0, trace.KindResourceWait, "robot-1", 1, 0),
		res(0, trace.KindResourceGrant, "robot-1", 0, 0),
		res(1, trace.KindResourceWait, "robot-0", 2, 0),
		res(1, trace.KindResourceWait, "gate", 7, 0),
		res(1, trace.KindResourceGrant, "robot-0", 1, 0.5),
		res(2, trace.KindResourceWait, "robot-1", 3, 0),
		res(3, trace.KindResourceRelease, "robot-1", 0, 3),
		res(3, trace.KindResourceGrant, "gate", 0, 2),
		res(3, trace.KindResourceGrant, "robot-1", 0, 1),
		res(4, trace.KindResourceRelease, "robot-0", 0, 3),
		res(5, trace.KindResourceRelease, "robot-1", 0, 2),
		res(5, trace.KindResourceRelease, "gate", 0, 2),
	}
	tl := BuildTimeline(events)
	wantRobots := []RobotTimeline{
		{Library: 0, Grants: 1, HoldSeconds: 3, WaitSeconds: 0.5, MaxQueue: 2},
		{Library: 1, Grants: 2, HoldSeconds: 5, WaitSeconds: 1, MaxQueue: 3},
	}
	if len(tl.Robots) != len(wantRobots) {
		t.Fatalf("robots = %+v, want %+v", tl.Robots, wantRobots)
	}
	for i, want := range wantRobots {
		if tl.Robots[i] != want {
			t.Errorf("robot row %d = %+v, want %+v", i, tl.Robots[i], want)
		}
	}
	wantQueues := []QueueSeries{
		{Name: "gate", Samples: []QueueSample{{1, 7}, {3, 0}, {5, 0}}},
		{Name: "robot-0", Samples: []QueueSample{{1, 2}, {1, 1}, {4, 0}}},
		{Name: "robot-1", Samples: []QueueSample{{0, 1}, {0, 0}, {2, 3}, {3, 0}, {3, 0}, {5, 0}}},
	}
	if len(tl.Queues) != len(wantQueues) {
		t.Fatalf("queues = %+v, want %+v", tl.Queues, wantQueues)
	}
	for i, want := range wantQueues {
		got := tl.Queues[i]
		if got.Name != want.Name || !slices.Equal(got.Samples, want.Samples) {
			t.Errorf("queue %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestTimelineRendering(t *testing.T) {
	tl := BuildTimeline(timelineEvents())
	var txt bytes.Buffer
	if err := tl.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"run: 1 requests", "components:", "L0.D0", "L0.D1", "per-robot timeline",
		"per-phase breakdown (critical path)", "robot-move", "repair-stall", "queue robot-0"} {
		if !strings.Contains(txt.String(), frag) {
			t.Errorf("text report missing %q:\n%s", frag, txt.String())
		}
	}
	var csv bytes.Buffer
	if err := tl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"section,key,value", "run,requests,1", "component,seek_s,1.5", "drive,0,1,",
		"robot,0,2,2,2,2,1", "phase,name,total_s", "phase,robot-move,2,", "phase,transfer,20,", "queue,robot-0,0,1"} {
		if !strings.Contains(csv.String(), frag) {
			t.Errorf("csv report missing %q:\n%s", frag, csv.String())
		}
	}
	// The CSV is byte-deterministic.
	var csv2 bytes.Buffer
	if err := tl.WriteCSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv.Bytes(), csv2.Bytes()) {
		t.Error("CSV report not deterministic")
	}
}

func TestBuildTimelineEmpty(t *testing.T) {
	tl := BuildTimeline(nil)
	if tl.Requests != 0 || len(tl.Drives) != 0 || len(tl.Robots) != 0 {
		t.Errorf("empty timeline: %+v", tl)
	}
	var buf bytes.Buffer
	if err := tl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	// Zero horizon must not divide by zero in utilization or the renders.
	if u := (DriveTimeline{ServeSeconds: 5}).Utilization(tl.Horizon); u != 0 {
		t.Errorf("utilization at zero horizon = %g, want 0", u)
	}
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTimelineSingleEvent(t *testing.T) {
	tl := BuildTimeline([]trace.Event{
		{T: 0, Kind: trace.KindSubmit, Lib: -1, Drive: -1, Tape: -1, Req: 0},
	})
	if tl.Requests != 1 || tl.Horizon != 0 || len(tl.Drives) != 0 {
		t.Errorf("single-event timeline: %+v", tl)
	}
	var txt, csv bytes.Buffer
	if err := tl.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "run: 1 requests, 0 switches, horizon 0.00s") {
		t.Errorf("text: %s", txt.String())
	}
	if err := tl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "run,requests,1") {
		t.Errorf("csv: %s", csv.String())
	}
}

// TestBuildTimelineOutOfOrderSpanClose covers a span-close event (serve-end)
// whose duration exceeds the trace horizon: the drive's busy time is larger
// than the observation window, so idle clamps to zero and utilization tops
// out above 1 rather than going negative or dividing by zero.
func TestBuildTimelineOutOfOrderSpanClose(t *testing.T) {
	tl := BuildTimeline([]trace.Event{
		{T: 5, Kind: trace.KindServeEnd, Lib: 0, Drive: 0, Tape: 0, Req: 0, Bytes: 10, Dur: 30},
		{T: 4, Kind: trace.KindMounted, Lib: 0, Drive: 0, Tape: 1, Req: 0, Dur: 4},
	})
	if tl.Horizon != 5 {
		t.Errorf("horizon = %g, want 5 (max T, not last T)", tl.Horizon)
	}
	d := tl.Drives[0]
	if d.IdleSeconds != 0 {
		t.Errorf("idle = %g, want clamp to 0 when spans exceed the horizon", d.IdleSeconds)
	}
	if u := d.Utilization(tl.Horizon); u <= 1 {
		t.Errorf("utilization = %g, want > 1 for an over-subscribed window", u)
	}
	var buf bytes.Buffer
	if err := tl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestBuildTimelineIdleDrive covers a drive that appears in the trace only
// through a zero-duration plan: utilization is exactly zero, idle spans the
// whole horizon, and nothing divides by zero on the way.
func TestBuildTimelineIdleDrive(t *testing.T) {
	tl := BuildTimeline([]trace.Event{
		{T: 0, Kind: trace.KindSeek, Lib: 1, Drive: 3, Tape: 0, Req: 0, Dur: 0},
		{T: 8, Kind: trace.KindComplete, Lib: -1, Drive: -1, Tape: -1, Req: 0, Dur: 8},
	})
	if len(tl.Drives) != 1 {
		t.Fatalf("drives = %d", len(tl.Drives))
	}
	d := tl.Drives[0]
	if u := d.Utilization(tl.Horizon); u != 0 {
		t.Errorf("idle drive utilization = %g, want 0", u)
	}
	if d.IdleSeconds != 8 {
		t.Errorf("idle = %g, want full horizon", d.IdleSeconds)
	}
	var buf bytes.Buffer
	if err := tl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "L1.D3") {
		t.Errorf("idle drive missing from report:\n%s", buf.String())
	}
}
