package sim

import (
	"testing"
)

func TestResourceExclusive(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "robot")
	var order []string
	// Holder 1 takes the resource for 10s; holder 2 requests at t=1 and
	// must wait until t=10.
	e.ScheduleOp(0, opFunc(func() {
		r.AcquireOp(granteeFunc(func(g *Grant) {
			order = append(order, "a-acquired")
			e.ScheduleOp(10, opFunc(func() {
				order = append(order, "a-release")
				g.Release()
			}), 0)
		}))
	}), 0)
	e.ScheduleOp(1, opFunc(func() {
		r.AcquireOp(granteeFunc(func(g *Grant) {
			if e.Now() != 10 {
				t.Errorf("second grant at t=%v, want 10", e.Now())
			}
			order = append(order, "b-acquired")
			g.Release()
		}))
	}), 0)
	e.Run()
	want := []string{"a-acquired", "a-release", "b-acquired"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "robot")
	var served []int
	e.ScheduleOp(0, opFunc(func() {
		r.AcquireOp(granteeFunc(func(g *Grant) {
			e.ScheduleOp(5, opFunc(g.Release), 0)
		}))
	}), 0)
	for i := 0; i < 5; i++ {
		i := i
		e.ScheduleOp(float64(i)+0.1, opFunc(func() {
			r.AcquireOp(granteeFunc(func(g *Grant) {
				served = append(served, i)
				e.ScheduleOp(1, opFunc(g.Release), 0)
			}))
		}), 0)
	}
	e.Run()
	for i, v := range served {
		if v != i {
			t.Fatalf("service order %v not FIFO", served)
		}
	}
}

func TestResourceImmediateWhenFree(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "robot")
	granted := -1.0
	e.ScheduleOp(3, opFunc(func() {
		r.AcquireOp(granteeFunc(func(g *Grant) {
			granted = e.Now()
			g.Release()
		}))
	}), 0)
	e.Run()
	if granted != 3 {
		t.Errorf("grant at t=%v, want 3 (no artificial delay)", granted)
	}
}

func TestResourceDoubleReleasePanics(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "robot")
	e.ScheduleOp(0, opFunc(func() {
		r.AcquireOp(granteeFunc(func(g *Grant) {
			g.Release()
			defer func() {
				if recover() == nil {
					t.Error("double release did not panic")
				}
			}()
			g.Release()
		}))
	}), 0)
	e.Run()
}

func TestResourceStats(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "robot")
	// Two holders, 10s each, second queues at t=0 and waits 10s.
	for i := 0; i < 2; i++ {
		e.ScheduleOp(0, opFunc(func() {
			r.AcquireOp(granteeFunc(func(g *Grant) {
				e.ScheduleOp(10, opFunc(g.Release), 0)
			}))
		}), 0)
	}
	e.Run()
	s := r.Stats()
	if s.Acquisitions != 2 {
		t.Errorf("Acquisitions = %d, want 2", s.Acquisitions)
	}
	if s.BusyTotal != 20 {
		t.Errorf("BusyTotal = %v, want 20", s.BusyTotal)
	}
	if s.WaitTotal != 10 {
		t.Errorf("WaitTotal = %v, want 10", s.WaitTotal)
	}
	if s.MaxQueue != 1 {
		t.Errorf("MaxQueue = %d, want 1", s.MaxQueue)
	}
}

// TestResourceBusyAndQueueLen checks the holder flag and the waiter count
// that AcquireOp and Release maintain.
func TestResourceBusyAndQueueLen(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "robot")
	if r.busy {
		t.Error("fresh resource busy")
	}
	release := granteeFunc(func(g *Grant) { g.Release() })
	e.ScheduleOp(0, opFunc(func() {
		r.AcquireOp(granteeFunc(func(g *Grant) { e.ScheduleOp(5, opFunc(g.Release), 0) }))
		r.AcquireOp(release)
		r.AcquireOp(release)
	}), 0)
	e.ScheduleOp(1, opFunc(func() {
		if !r.busy {
			t.Error("resource not busy at t=1")
		}
		if r.count != 2 {
			t.Errorf("queued waiters = %d, want 2", r.count)
		}
	}), 0)
	e.Run()
	if r.busy {
		t.Error("resource busy after drain")
	}
}

func TestResourceNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewResource(nil) did not panic")
		}
	}()
	NewResource(nil, "x")
}

func TestLatchFiresAtZero(t *testing.T) {
	e := NewEngine()
	l := NewLatch(3)
	firedAt := -1.0
	l.WaitOp(opFunc(func() { firedAt = e.Now() }), 0)
	for _, d := range []float64{2, 4, 9} {
		e.ScheduleOp(d, opFunc(l.Done), 0)
	}
	e.Run()
	if firedAt != 9 {
		t.Errorf("latch fired at %v, want 9", firedAt)
	}
}

func TestLatchZeroCountFiresOnWait(t *testing.T) {
	fired := false
	NewLatch(0).WaitOp(opFunc(func() { fired = true }), 0)
	if !fired {
		t.Error("zero-count latch did not fire on WaitOp")
	}
}

func TestLatchOverdonePanics(t *testing.T) {
	l := NewLatch(1)
	l.Done()
	defer func() {
		if recover() == nil {
			t.Error("extra Done did not panic")
		}
	}()
	l.Done()
}

func TestLatchDoubleWaitPanics(t *testing.T) {
	l := NewLatch(1)
	l.WaitOp(opFunc(func() {}), 0)
	defer func() {
		if recover() == nil {
			t.Error("double WaitOp did not panic")
		}
	}()
	l.WaitOp(opFunc(func() {}), 0)
}

// TestRobotScenario models the paper's core contention pattern: three tape
// switches contending for one robot; each needs the robot for 2×7.6s of
// cartridge moves; switches requested simultaneously serialize.
func TestRobotScenario(t *testing.T) {
	e := NewEngine()
	robot := NewResource(e, "robot")
	const moveTime = 7.6
	var finishTimes []float64
	for i := 0; i < 3; i++ {
		e.ScheduleOp(0, opFunc(func() {
			robot.AcquireOp(granteeFunc(func(g *Grant) {
				e.ScheduleOp(2*moveTime, opFunc(func() {
					finishTimes = append(finishTimes, e.Now())
					g.Release()
				}), 0)
			}))
		}), 0)
	}
	e.Run()
	want := []float64{15.2, 30.4, 45.6}
	if len(finishTimes) != 3 {
		t.Fatalf("finishTimes = %v", finishTimes)
	}
	for i := range want {
		if diff := finishTimes[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("switch %d finished at %v, want %v", i, finishTimes[i], want[i])
		}
	}
}
