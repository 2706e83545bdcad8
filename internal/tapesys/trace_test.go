package tapesys

import (
	"bytes"
	"strings"
	"testing"

	"paralleltape/internal/tape"
	"paralleltape/internal/trace"
)

func TestTraceRecordsLifecycle(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 2,
		map[tape.Key][]objSpec{
			{Library: 0, Index: 0}: {{0, 100}},
			{Library: 0, Index: 3}: {{1, 100}},
		},
		[][]int{{0, -1}, {-1, -1}}, nil, nil)
	s, err := New(hw, pl)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.EnableTrace(0)
	if _, err := s.Submit(req(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	kinds := trace.CountByKind(tr.Events)
	if kinds[trace.KindSubmit] != 1 || kinds[trace.KindComplete] != 1 {
		t.Errorf("submit/complete counts: %v", kinds)
	}
	if kinds[trace.KindServeStart] != 2 || kinds[trace.KindServeEnd] != 2 {
		t.Errorf("serve counts: %v", kinds)
	}
	if kinds[trace.KindSeek] != 2 || kinds[trace.KindTransfer] != 2 {
		t.Errorf("seek/transfer span counts: %v", kinds)
	}
	// One switch (empty drive): rewind (Dur 0 for the empty drive) +
	// robot + load + mounted — every chain opens with a rewind marker.
	if kinds[trace.KindRobot] != 1 || kinds[trace.KindLoad] != 1 || kinds[trace.KindMounted] != 1 {
		t.Errorf("switch pipeline counts: %v", kinds)
	}
	if kinds[trace.KindRewind] != 1 {
		t.Errorf("rewind events: %v", kinds)
	}
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindRewind && (ev.Dur != 0 || ev.Tape != -1) {
			t.Errorf("empty-drive rewind should carry Dur 0 / Tape -1, got %+v", ev)
		}
	}
	// Sim-level contention events interleave: one robot grant + release,
	// and the request latch opened once.
	if kinds[trace.KindResourceGrant] != 1 || kinds[trace.KindResourceRelease] != 1 {
		t.Errorf("resource event counts: %v", kinds)
	}
	if kinds[trace.KindLatchOpen] != 1 {
		t.Errorf("latch event counts: %v", kinds)
	}
	// Events are time-ordered.
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].T < tr.Events[i-1].T {
			t.Fatal("trace not time-ordered")
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteText(&buf, tr.Events); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"submit", "serve-start", "mounted", "complete"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("trace text missing %q:\n%s", frag, buf.String())
		}
	}
}

func TestTraceLimitAndDisable(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 1,
		map[tape.Key][]objSpec{{Library: 0, Index: 0}: {{0, 100}}},
		[][]int{{0, -1}, {-1, -1}}, nil, nil)
	s, err := New(hw, pl)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.EnableTrace(2)
	if _, err := s.Submit(req(0, 0)); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 {
		t.Errorf("limited trace has %d events", len(tr.Events))
	}
	s.SetRecorder(nil)
	if _, err := s.Submit(req(0, 0)); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 {
		t.Errorf("disabled trace still grew: %d", len(tr.Events))
	}
}

func TestDriveReportAccounting(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 2,
		map[tape.Key][]objSpec{
			{Library: 0, Index: 0}: {{0, 100}},
			{Library: 0, Index: 3}: {{1, 200}},
		},
		[][]int{{0, -1}, {-1, -1}}, nil, nil)
	s, err := New(hw, pl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	report := s.DriveReport()
	if len(report) != 4 {
		t.Fatalf("report rows: %d", len(report))
	}
	var moved int64
	mounts := 0
	for _, d := range report {
		moved += d.BytesMoved
		mounts += d.Mounts
	}
	if moved != 300 {
		t.Errorf("bytes moved = %d, want 300", moved)
	}
	if mounts != 1 {
		t.Errorf("mounts = %d, want 1", mounts)
	}
	// Drive 0 (mounted service): busy 10s transfer, no switch time.
	d0 := report[0]
	if d0.BusySeconds != 10 || d0.SwitchSeconds != 0 {
		t.Errorf("drive 0 accounting: %+v", d0)
	}
	// Drive 1 switched (fetch 2 + load 3 = 5s) then transferred 20s.
	d1 := report[1]
	if d1.SwitchSeconds != 5 || d1.BusySeconds != 20 {
		t.Errorf("drive 1 accounting: %+v", d1)
	}
}

func TestRobotReport(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 2,
		map[tape.Key][]objSpec{
			{Library: 0, Index: 2}: {{0, 100}},
			{Library: 0, Index: 3}: {{1, 100}},
		},
		nil, nil, nil)
	s, err := New(hw, pl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req(0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	robots := s.RobotReport()
	if len(robots) != 2 {
		t.Fatalf("robot rows: %d", len(robots))
	}
	if robots[0].Stats.Acquisitions != 2 {
		t.Errorf("library 0 robot grants = %d, want 2", robots[0].Stats.Acquisitions)
	}
	if robots[0].UtilPercent <= 0 {
		t.Error("library 0 robot shows zero utilization")
	}
	if robots[1].Stats.Acquisitions != 0 {
		t.Errorf("library 1 robot grants = %d, want 0", robots[1].Stats.Acquisitions)
	}
}

func TestWriteUtilization(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 1,
		map[tape.Key][]objSpec{{Library: 0, Index: 0}: {{0, 100}}},
		[][]int{{0, -1}, {-1, -1}}, nil, nil)
	s, err := New(hw, pl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req(0, 0)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteUtilization(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"simulated time", "L0.D0", "robot"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("utilization missing %q:\n%s", frag, buf.String())
		}
	}
}

func TestFailDriveReroutesService(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 2,
		map[tape.Key][]objSpec{
			{Library: 0, Index: 0}: {{0, 100}},
			{Library: 0, Index: 3}: {{1, 100}},
		},
		[][]int{{0, -1}, {-1, -1}}, nil, nil)
	s, err := New(hw, pl)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy: object 0 is served from the mounted tape in 10 s.
	m, err := s.Submit(req(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Switches != 0 {
		t.Fatalf("warmup switched: %+v", m)
	}
	// Fail drive 0: its tape goes back to the cell.
	if err := s.FailDrive(0, 0); err != nil {
		t.Fatal(err)
	}
	if s.FailedDrives() != 1 {
		t.Errorf("FailedDrives = %d", s.FailedDrives())
	}
	// The same request now needs a switch onto the surviving drive.
	m2, err := s.Submit(req(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m2.Switches != 1 {
		t.Errorf("post-failure switches = %d, want 1", m2.Switches)
	}
	report := s.DriveReport()
	if !report[0].Failed {
		t.Error("drive 0 not marked failed")
	}
}

func TestFailDriveAllDrivesErrors(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 1,
		map[tape.Key][]objSpec{{Library: 0, Index: 3}: {{0, 100}}},
		nil, nil, nil)
	s, err := New(hw, pl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FailDrive(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDrive(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req(0, 0)); err == nil {
		t.Error("library with no working drives served a request")
	}
}

func TestFailDriveValidation(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 1,
		map[tape.Key][]objSpec{{Library: 0, Index: 0}: {{0, 100}}},
		nil, nil, nil)
	s, err := New(hw, pl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FailDrive(9, 0); err == nil {
		t.Error("bad library accepted")
	}
	if err := s.FailDrive(0, 9); err == nil {
		t.Error("bad drive accepted")
	}
	if err := s.FailDrive(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDrive(0, 0); err == nil {
		t.Error("double failure accepted")
	}
}

func TestFailPinnedDriveUnpins(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 2,
		map[tape.Key][]objSpec{
			{Library: 0, Index: 0}: {{0, 100}},
			{Library: 0, Index: 3}: {{1, 100}},
		},
		[][]int{{0, -1}, {-1, -1}},
		[][]bool{{true, false}, {false, false}}, nil)
	s, err := New(hw, pl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FailDrive(0, 0); err != nil {
		t.Fatal(err)
	}
	// Object 0's tape is now offline; the surviving switch drive must
	// fetch it.
	m, err := s.Submit(req(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Switches != 1 {
		t.Errorf("switches = %d, want 1", m.Switches)
	}
}
