package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// BenchmarkSchedule measures the bare ScheduleOp→dispatch cycle: one event
// pushed and fired per op. This is the kernel's innermost loop; it must be
// allocation-free in steady state (see TestScheduleSteadyStateAllocs).
func BenchmarkSchedule(b *testing.B) {
	eng := NewEngine()
	op := opFunc(func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.ScheduleOp(1, op, 0)
		eng.Run()
	}
}

// BenchmarkScheduleSkewed interleaves near and far deadlines so up to 256
// events stand pending at eight distinct instants, most of them inserted
// by binary search rather than appended. Imminent transfers mixed with
// distant switch completions have this shape, although no exhibit or
// workload holds more than 40 events. Search depth and shift lengths
// differ markedly from the FIFO-ish pattern of BenchmarkSchedule.
func BenchmarkScheduleSkewed(b *testing.B) {
	eng := NewEngine()
	op := opFunc(func() {})
	delays := [...]float64{0.001, 1800, 0.01, 700, 0.1, 2400, 1, 300}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.ScheduleOp(delays[i%len(delays)], op, 0)
		if i%256 == 255 {
			// Drain everything scheduled so far so the queue's high-water
			// mark stays bounded and steady state is allocation-free.
			eng.Run()
		}
	}
	eng.Run()
}

// TestScheduleSteadyStateAllocs pins the kernel's allocation contract:
// once the event queue's backing array has grown to the run's high-water
// mark, scheduling plus dispatch allocate nothing.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	eng := NewEngine()
	op := opFunc(func() {})
	// Warm the queue past the steady-state population so the backing array
	// has its final capacity.
	for i := 0; i < 128; i++ {
		eng.ScheduleOp(float64(i%7), op, 0)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			eng.ScheduleOp(float64(i%7), op, 0)
		}
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("schedule+dispatch steady state allocates %.1f per run, want 0", allocs)
	}
}

// standingOp reschedules itself every period seconds while the shared
// budget lasts, so each op keeps one event pending until the budget runs
// out.
type standingOp struct {
	eng    *Engine
	period float64
	budget *int
}

// Run implements Op.
func (op *standingOp) Run(uint8) {
	if *op.budget > 0 {
		*op.budget--
		op.eng.ScheduleOp(op.period, op, 0)
	}
}

// TestScheduleSteadyStateAllocsStanding pins the allocation contract under
// a standing backlog: 400 self-rescheduling ops keep 400 events pending
// through one Run, so the cursor never catches up with the tail and pop
// never rewinds the array. The array stays bounded only because push
// slides the pending events to the front before append would grow it; a
// Run 50 times longer than the one that warmed the array allocates nothing.
func TestScheduleSteadyStateAllocsStanding(t *testing.T) {
	eng := NewEngine()
	var budget int
	ops := make([]standingOp, 400)
	for i := range ops {
		// Seven periods interleave the reschedules, so pushes mix tail
		// appends with binary-searched inserts.
		ops[i] = standingOp{eng: eng, period: float64(1 + i%7), budget: &budget}
	}
	run := func(firings int) {
		budget = firings
		for i := range ops {
			eng.ScheduleOp(float64(i)/float64(len(ops)), &ops[i], 0)
		}
		eng.Run()
	}
	// AllocsPerRun's first, unmeasured call warms the array on a short run;
	// the measured call pushes 50 times as many events through it.
	firings := 2_000
	allocs := testing.AllocsPerRun(1, func() {
		run(firings)
		firings = 100_000
	})
	if allocs != 0 {
		t.Fatalf("standing backlog allocates %.0f over a warm run, want 0", allocs)
	}
}

// TestSpillGrowthAllocBudget schedules 600 events spread over 100,000 s,
// many times the simulator's largest pending set, and drains them. The
// first fill grows the array by doubling; AllocsPerRun spends it as its
// unmeasured warm-up call, so the 256 budget covers one refill of the
// grown array plus the harness, and the 20 refills after it must allocate
// nothing.
func TestSpillGrowthAllocBudget(t *testing.T) {
	eng := NewEngine()
	op := opFunc(func() {})
	r := rand.New(rand.NewSource(1))
	fill := func() {
		for i := 0; i < 600; i++ {
			eng.ScheduleOp(r.Float64()*100000, op, 0)
		}
	}
	allocs := testing.AllocsPerRun(1, func() { fill(); eng.Run() })
	// A per-event leak would show up as ≥ 600.
	if allocs > 256 {
		t.Fatalf("first-contact growth allocates %.1f, budget 256", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { fill(); eng.Run() }); allocs != 0 {
		t.Fatalf("grown array allocates %.1f per run, want 0", allocs)
	}
}

// TestResetSteadyStateAllocs verifies Engine.Reset keeps the queue's
// backing array: a reset-and-refill cycle at the same population allocates
// nothing.
func TestResetSteadyStateAllocs(t *testing.T) {
	eng := NewEngine()
	op := opFunc(func() {})
	for i := 0; i < 64; i++ {
		eng.ScheduleOp(float64(i), op, 0)
	}
	allocs := testing.AllocsPerRun(50, func() {
		eng.Reset()
		for i := 0; i < 64; i++ {
			eng.ScheduleOp(float64(i), op, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset+refill allocates %.1f per run, want 0", allocs)
	}
}

// TestFiredEventsCollectible verifies the queue does not pin fired
// continuations: pop zeroes the vacated slot, so a continuation's captures
// become garbage as soon as it has run, even while the engine (and its
// reusable backing array) stays alive.
func TestFiredEventsCollectible(t *testing.T) {
	eng := NewEngine()
	type payload struct{ buf [4096]byte }
	collected := make(chan struct{})
	obj := &payload{}
	// The finalizer runs on the runtime's finalizer goroutine; signal
	// through a channel so the handoff is race-free.
	runtime.SetFinalizer(obj, func(*payload) { close(collected) })
	eng.ScheduleOp(0, opFunc(func() { _ = obj.buf[0] }), 0)
	eng.Run()
	obj = nil
	done := false
	for i := 0; i < 20 && !done; i++ {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !done {
		t.Fatal("continuation captures still reachable after the event fired; the queue is pinning popped events")
	}
	// Keep the engine alive past the GC loop so collection can only be
	// explained by the slot-zeroing, not by the whole queue dying.
	if n := eng.queue.len(); n != 0 {
		t.Fatalf("queue not empty: %d", n)
	}
}
