package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// BenchmarkSchedule measures the bare Schedule→dispatch cycle: one event
// pushed and fired per op. This is the kernel's innermost loop; it must be
// allocation-free in steady state (see TestScheduleSteadyStateAllocs).
func BenchmarkSchedule(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Schedule(1, fn)
		eng.Run()
	}
}

// BenchmarkScheduleSkewed interleaves near and far deadlines so up to 256
// events stand pending — far past the near tier's 64, so the far half
// spills to the heap while near events churn through the sorted tier.
// Imminent transfers mixed with distant switch completions have this
// shape, although no exhibit or workload holds more than 39 events. Sift
// depth and cache behavior differ markedly from the FIFO-ish pattern of
// BenchmarkSchedule.
func BenchmarkScheduleSkewed(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	delays := [...]float64{0.001, 1800, 0.01, 700, 0.1, 2400, 1, 300}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Schedule(delays[i%len(delays)], fn)
		if i%256 == 255 {
			// Drain everything scheduled so far (max delay < 4000) so the
			// queue's high-water mark stays bounded and steady state is
			// allocation-free.
			eng.RunUntil(eng.Now() + 4000)
		}
	}
	eng.Run()
}

// BenchmarkScheduleChurn keeps a standing far-future population in the
// heap while near events churn through the sorted tier: every op schedules
// a near event and a far event, and periodic partial drains pop near
// events through the cursor and pull far ones out of the heap root. This
// is the standing-heap stress the skewed benchmark's periodic full drains
// do not produce; tracked as engine-schedule-churn.
func BenchmarkScheduleChurn(b *testing.B) {
	eng := NewEngine()
	fn := func() {}
	far := [...]float64{30000, 1200, 90000, 400, 7000, 250000, 2600, 45000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.Schedule(float64(i%13)*0.25, fn)
		eng.Schedule(far[i%len(far)], fn)
		if i%64 == 63 {
			// Drain the near events; far events stay standing in the heap.
			eng.RunUntil(eng.Now() + 30)
		}
		if i%1024 == 1023 {
			// Advance deep enough to pop most standing far events (all but
			// the quarter-million-second stragglers).
			eng.RunUntil(eng.Now() + 100000)
		}
	}
	eng.Run()
}

// TestScheduleSteadyStateAllocs pins the kernel's allocation contract:
// once the event queue's backing array has grown to the run's high-water
// mark, Schedule plus dispatch allocate nothing.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Warm the queue past the steady-state population so the backing array
	// has its final capacity.
	for i := 0; i < 128; i++ {
		eng.Schedule(float64(i%7), fn)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			eng.Schedule(float64(i%7), fn)
		}
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("Schedule+dispatch steady state allocates %.1f per run, want 0", allocs)
	}
}

// TestScheduleSteadyStateAllocsSpill pins the allocation contract at the
// queue's spill high-water mark: a standing far-future population large
// enough to have spilled to the heap, plus near-future churn through the
// sorted tier and the cursor fast path. Once both tiers' arrays have grown,
// Schedule plus dispatch allocate nothing.
func TestScheduleSteadyStateAllocsSpill(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	delays := [...]float64{0, 0.001, 1800, 0.01, 700, 0.1, 2400, 1, 300, 90000}
	churn := func() {
		for i := 0; i < 512; i++ {
			eng.Schedule(delays[i%len(delays)], fn)
			if i%128 == 127 {
				eng.RunUntil(eng.Now() + 4000) // drain near, keep far standing
			}
		}
		eng.RunUntil(eng.Now() + 200000) // drain the far events out of the heap
	}
	churn() // grow both tiers to their high-water marks
	if allocs := testing.AllocsPerRun(20, churn); allocs != 0 {
		t.Fatalf("spill steady state allocates %.1f per run, want 0", allocs)
	}
}

// TestSpillGrowthAllocBudget puts an explicit budget on first-contact
// spill growth: draining a fresh far-future population through tiers that
// have never grown may allocate (the near tier's and the heap's backing
// arrays), but within a fixed budget — and a second pass over the grown
// arrays must allocate nothing.
func TestSpillGrowthAllocBudget(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	r := rand.New(rand.NewSource(1))
	fill := func() {
		for i := 0; i < 600; i++ {
			eng.Schedule(r.Float64()*100000, fn)
		}
	}
	allocs := testing.AllocsPerRun(1, func() { fill(); eng.Run() })
	// Both tiers grow by doubling, a few dozen allocations at most. 256
	// bounds the whole first-growth transient with slack for the testing
	// harness itself, while still catching a per-event leak (600 events
	// would show up as ≥ 600).
	if allocs > 256 {
		t.Fatalf("first-contact spill growth allocates %.1f, budget 256", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { fill(); eng.Run() }); allocs != 0 {
		t.Fatalf("grown tiers allocate %.1f per run, want 0", allocs)
	}
}

// TestResetSteadyStateAllocs verifies Engine.Reset keeps the queue's
// backing array: a reset-and-refill cycle at the same population allocates
// nothing.
func TestResetSteadyStateAllocs(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		eng.Schedule(float64(i), fn)
	}
	allocs := testing.AllocsPerRun(50, func() {
		eng.Reset()
		for i := 0; i < 64; i++ {
			eng.Schedule(float64(i), fn)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset+refill allocates %.1f per run, want 0", allocs)
	}
}

// TestFiredEventsCollectible verifies the queue does not pin fired
// callbacks: pop zeroes the vacated slot, so a callback's captures become
// garbage as soon as it has run, even while the engine (and its reusable
// backing array) stays alive.
func TestFiredEventsCollectible(t *testing.T) {
	eng := NewEngine()
	type payload struct{ buf [4096]byte }
	collected := make(chan struct{})
	obj := &payload{}
	// The finalizer runs on the runtime's finalizer goroutine; signal
	// through a channel so the handoff is race-free.
	runtime.SetFinalizer(obj, func(*payload) { close(collected) })
	eng.Schedule(0, func() { _ = obj.buf[0] })
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
		t.Fatal("callback captures still reachable after the event fired; the queue is pinning popped events")
	}
	// Keep the engine alive past the GC loop so collection can only be
	// explained by the slot-zeroing, not by the whole queue dying.
	if eng.Pending() != 0 {
		t.Fatalf("queue not empty: %d", eng.Pending())
	}
}
