package sim

import "paralleltape/internal/trace"

// Resource is an exclusive, FIFO-queued simulated resource. The paper's
// robot arm (one per tape library, serializing all mount/unmount traffic in
// that library) maps directly onto it: each tape switch acquires the robot,
// holds it for the cartridge moves, and releases it.
//
// Acquire never blocks the caller; instead the grant callback fires (via the
// engine) once the resource is free, at which point the holder must
// eventually call Release exactly once.
//
// The grant path is allocation-free in steady state: the resource is
// exclusive, so a single embedded Grant is recycled across ownership
// periods, the resource schedules itself as the grant-dispatch Op (no
// closure, no capture), and waiters queue in a reusable ring buffer.
type Resource struct {
	eng  *Engine
	name string
	busy bool

	// waiters is a FIFO ring buffer: head is the next waiter, count the
	// number queued. A ring (rather than slicing the head off an append
	// queue) keeps long acquire/release sequences from reallocating.
	waiters []waiter
	head    int
	count   int

	// grant is the recycled ownership token (at most one holder exists at
	// a time) and next the waiter being dispatched; the dispatch event is
	// the resource itself (Run), so arming it costs no allocation.
	grant Grant
	next  waiter

	// accounting
	acquisitions int
	busySince    Time
	busyTotal    float64
	waitTotal    float64
	maxQueue     int
}

// Grantee receives ownership of a Resource. Pooled continuation records
// implement it directly so queueing for a resource captures no closure;
// plain func(*Grant) callbacks are adapted for free by Acquire (grantFunc
// is pointer-shaped).
type Grantee interface {
	// Granted is invoked through the engine once the resource is owned by
	// this waiter; the holder must eventually call g.Release exactly once.
	Granted(g *Grant)
}

// grantFunc adapts a plain grant callback to Grantee without allocating.
type grantFunc func(g *Grant)

// Granted implements Grantee by calling the wrapped callback.
func (f grantFunc) Granted(g *Grant) { f(g) }

// waiter is one queued acquisition: the grantee plus the request instant
// (for wait-time accounting).
type waiter struct {
	gr        Grantee
	requested Time
}

// Grant represents one ownership period of a Resource. Release it when the
// simulated work holding the resource finishes.
type Grant struct {
	r        *Resource
	released bool
}

// emit records a contention event when the engine has a trace recorder.
// The guard keeps the disabled path allocation-free.
func (r *Resource) emit(kind trace.Kind, dur float64, queue int) {
	rec := r.eng.rec
	if rec == nil {
		return
	}
	rec.Record(trace.Event{
		T: r.eng.now, Kind: kind, Lib: -1, Drive: -1, Tape: -1, Req: -1,
		Dur: dur, Queue: int32(queue), Name: r.name,
	})
}

// NewResource creates a named resource attached to an engine.
func NewResource(eng *Engine, name string) *Resource {
	if eng == nil {
		panic("sim: NewResource with nil engine")
	}
	r := &Resource{eng: eng, name: name}
	r.grant.r = r
	return r
}

// Name returns the diagnostic name.
func (r *Resource) Name() string { return r.name }

// Run implements Op: the resource is its own grant-dispatch event, handing
// the recycled grant to the armed waiter. At most one dispatch is pending
// per resource at any instant, because a new one is only scheduled by
// Release (which requires the previous grant to have fired) or by an
// Acquire that found the resource free.
func (r *Resource) Run(uint8) {
	w := r.next
	r.next = waiter{}
	r.waitTotal += r.eng.Now() - w.requested
	r.emit(trace.KindResourceGrant, r.eng.Now()-w.requested, r.count)
	r.grant.released = false
	w.gr.Granted(&r.grant)
}

// enqueue appends a waiter to the ring, growing it when full.
func (r *Resource) enqueue(w waiter) {
	if r.count == len(r.waiters) {
		grown := make([]waiter, max(4, 2*len(r.waiters)))
		for i := 0; i < r.count; i++ {
			grown[i] = r.waiters[(r.head+i)%len(r.waiters)]
		}
		r.waiters = grown
		r.head = 0
	}
	r.waiters[(r.head+r.count)%len(r.waiters)] = w
	r.count++
}

// dequeue pops the oldest waiter; the vacated slot is zeroed so the
// grantee is collectible.
func (r *Resource) dequeue() waiter {
	w := r.waiters[r.head]
	r.waiters[r.head] = waiter{}
	r.head = (r.head + 1) % len(r.waiters)
	r.count--
	return w
}

// Acquire requests exclusive use. fn is invoked (through the engine, at the
// current instant or later) once the resource is granted.
func (r *Resource) Acquire(fn func(g *Grant)) {
	if fn == nil {
		panic("sim: Acquire with nil callback")
	}
	r.AcquireOp(grantFunc(fn))
}

// AcquireOp is the typed-continuation form of Acquire: gr.Granted fires
// (through the engine) once the resource is granted. A pooled record
// queueing itself this way costs no allocation.
func (r *Resource) AcquireOp(gr Grantee) {
	if gr == nil {
		panic("sim: Acquire with nil callback")
	}
	if !r.busy {
		r.busy = true
		r.busySince = r.eng.Now()
		r.acquisitions++
		r.next = waiter{gr: gr, requested: r.eng.Now()}
		r.eng.ImmediatelyOp(r, 0)
		return
	}
	r.enqueue(waiter{gr: gr, requested: r.eng.Now()})
	if r.count > r.maxQueue {
		r.maxQueue = r.count
	}
	r.emit(trace.KindResourceWait, 0, r.count)
}

// Release ends the grant and hands the resource to the next waiter, if any.
// Releasing twice panics — double release means two simulated activities
// believed they owned the robot at once.
func (g *Grant) Release() {
	if g.released {
		panic("sim: Grant released twice on resource " + g.r.name)
	}
	g.released = true
	r := g.r
	// busySince is the grant instant of the current holder, so the hold
	// time of this ownership period is now − busySince.
	r.busyTotal += r.eng.Now() - r.busySince
	r.emit(trace.KindResourceRelease, r.eng.Now()-r.busySince, r.count)
	if r.count == 0 {
		r.busy = false
		return
	}
	r.next = r.dequeue()
	r.busySince = r.eng.Now()
	r.acquisitions++
	r.eng.ImmediatelyOp(r, 0)
}

// Reset returns the resource to its initial idle state with zeroed
// accounting, keeping the ring buffer's backing array. Pair it with
// Engine.Reset when replaying a fresh run on reused infrastructure.
func (r *Resource) Reset() {
	for i := range r.waiters {
		r.waiters[i] = waiter{}
	}
	r.head, r.count = 0, 0
	r.busy = false
	r.next = waiter{}
	r.grant.released = false
	r.acquisitions = 0
	r.busySince = 0
	r.busyTotal = 0
	r.waitTotal = 0
	r.maxQueue = 0
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen returns the number of waiters.
func (r *Resource) QueueLen() int { return r.count }

// Stats summarizes utilization over the run so far.
type ResourceStats struct {
	Acquisitions int     // completed Acquire calls, queued or not
	BusyTotal    float64 // total seconds held
	WaitTotal    float64 // total seconds waiters spent queued
	MaxQueue     int     // high-water mark of the waiter queue
}

// Stats returns a snapshot of the resource accounting.
func (r *Resource) Stats() ResourceStats {
	busy := r.busyTotal
	if r.busy {
		busy += r.eng.Now() - r.busySince
	}
	return ResourceStats{
		Acquisitions: r.acquisitions,
		BusyTotal:    busy,
		WaitTotal:    r.waitTotal,
		MaxQueue:     r.maxQueue,
	}
}

// Latch is a countdown latch: Done must be called Count times, after which
// the completion continuation fires. It detects "last drive finished
// serving this request".
type Latch struct {
	remaining int
	fired     bool
	onZero    Op
	zeroTag   uint8
	eng       *Engine // optional, for trace emission only
	name      string
}

// NewLatch returns a latch expecting count completions. count 0 fires
// immediately when Wait is armed.
func NewLatch(count int) *Latch {
	if count < 0 {
		panic("sim: NewLatch with negative count")
	}
	return &Latch{remaining: count}
}

// Reset rearms the latch for count completions with no waiter, keeping any
// Observe attachment. It lets a long-lived owner (one latch per simulated
// system, rather than one per request) reuse the allocation.
func (l *Latch) Reset(count int) {
	if count < 0 {
		panic("sim: Latch.Reset with negative count")
	}
	l.remaining = count
	l.fired = false
	l.onZero = nil
	l.zeroTag = 0
}

// Observe names the latch and attaches it to an engine so its completion
// emits a trace event (kind "latch-open") through the engine's recorder.
// Without Observe — or with tracing disabled — the latch stays silent.
func (l *Latch) Observe(eng *Engine, name string) *Latch {
	l.eng = eng
	l.name = name
	return l
}

// Add increases the expected completion count. It panics if the latch
// already fired — adding after completion is a scheduling bug.
func (l *Latch) Add(n int) {
	if l.fired {
		panic("sim: Latch.Add after completion")
	}
	if n < 0 {
		panic("sim: Latch.Add with negative n")
	}
	l.remaining += n
}

// Wait arms the completion callback. If the count is already zero the
// callback fires synchronously.
func (l *Latch) Wait(fn func()) {
	if fn == nil {
		panic("sim: Latch.Wait with nil callback")
	}
	l.WaitOp(funcOp(fn), 0)
}

// WaitOp is the typed-continuation form of Wait: op.Run(tag) fires —
// synchronously, in engine context — when the count reaches zero, which may
// be during this call if it already has.
func (l *Latch) WaitOp(op Op, tag uint8) {
	if l.onZero != nil {
		panic("sim: Latch.Wait called twice")
	}
	if op == nil {
		panic("sim: Latch.Wait with nil callback")
	}
	l.onZero = op
	l.zeroTag = tag
	l.maybeFire()
}

// Done records one completion.
func (l *Latch) Done() {
	if l.remaining <= 0 {
		panic("sim: Latch.Done called more times than Add'ed")
	}
	l.remaining--
	l.maybeFire()
}

// Remaining returns the outstanding completion count.
func (l *Latch) Remaining() int { return l.remaining }

func (l *Latch) maybeFire() {
	if l.remaining == 0 && l.onZero != nil && !l.fired {
		l.fired = true
		if l.eng != nil && l.eng.rec != nil {
			l.eng.rec.Record(trace.Event{
				T: l.eng.now, Kind: trace.KindLatchOpen,
				Lib: -1, Drive: -1, Tape: -1, Req: -1, Name: l.name,
			})
		}
		l.onZero.Run(l.zeroTag)
	}
}
