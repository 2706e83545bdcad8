// Package sim is a small deterministic discrete-event simulation kernel.
//
// The tape-system simulator (package tapesys) is built on three primitives:
//
//   - Engine: a virtual clock plus a time-ordered event queue. Events
//     scheduled for the same instant fire in scheduling order, so runs are
//     fully deterministic.
//   - Resource: a FIFO-queued exclusive resource (the paper's robot arm —
//     one per library — is the canonical user).
//   - Latch: a countdown latch used to detect when the last of a set of
//     parallel activities (all drives serving one request) completes.
//
// The kernel is callback-based rather than goroutine-based: each simulated
// activity schedules its continuation. This keeps a full multi-library
// simulation single-threaded and reproducible; parallelism is applied one
// level up, across independent simulation runs (see internal/experiments).
//
// Continuations are typed: an event carries an Op (a continuation record
// with a jump-table Run method) plus a stage tag, and pooled records
// schedule themselves through ScheduleOp without capturing a closure; plain
// func() callbacks remain first-class through Schedule (see op.go). The
// pending set is a sorted near-future tier consumed by a cursor, with a
// 4-ary heap that takes the far half of any population past 64 events (see
// queue.go); its pop order is the (at, seq) total order, independent of
// which tier an event sits in.
//
// The kernel is also allocation-free in steady state (see
// docs/PERFORMANCE.md): both queue tiers reuse their backing arrays, so
// Schedule/dispatch cost no allocations once the tiers have grown to the
// run's high-water mark.
package sim

import (
	"fmt"
	"math"

	"paralleltape/internal/trace"
)

// Time is a simulated instant in seconds from the start of the run.
type Time = float64

// Engine is the simulation clock and event queue. The zero value is ready
// to use at time 0.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	stepped uint64 // events executed, for diagnostics and runaway guards
	limit   uint64 // optional max events (0 = unlimited)
	rec     trace.Recorder
}

// NewEngine returns an Engine starting at time 0.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to time 0 with an empty queue, retaining the
// queue's backing arrays (and the recorder and event limit) so a sequence of
// runs — e.g. the per-seed loop of one experiment point — reuses the
// high-water-mark allocation instead of regrowing a fresh queue each time.
func (e *Engine) Reset() {
	e.queue.reset()
	e.now = 0
	e.seq = 0
	e.stepped = 0
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.stepped }

// SetEventLimit installs a safety cap on the number of events Run (and
// RunUntil) will execute; exceeding it panics. Zero disables the cap.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// SetRecorder attaches a trace recorder. Components built on the engine
// (Resource, Latch) emit contention events through it; nil (the default)
// disables tracing with zero hot-path cost — every emit site nil-checks
// before constructing an event. The Engine itself emits no per-step
// events: with tens of thousands of callbacks per request, a per-step
// record would dwarf the semantic trace (see docs/OBSERVABILITY.md).
func (e *Engine) SetRecorder(r trace.Recorder) { e.rec = r }

// Schedule runs fn after delay simulated seconds. A negative or NaN delay
// panics: in this simulator a negative latency is always a modelling bug
// and silently clamping it would corrupt causality.
func (e *Engine) Schedule(delay float64, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	e.ScheduleOp(delay, funcOp(fn), 0)
}

// ScheduleOp runs op.Run(tag) after delay simulated seconds. It is the
// typed-continuation form of Schedule: a pooled record schedules itself
// without capturing a closure. Delay validation matches Schedule.
func (e *Engine) ScheduleOp(delay float64, op Op, tag uint8) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v", delay))
	}
	e.at(e.now+delay, op, tag)
}

// At runs fn at absolute time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	e.at(t, funcOp(fn), 0)
}

// at is the shared schedule core: validate the instant, assign the next
// sequence number, and file the event. Every public schedule entry point
// funnels here, so seq assignment order — and with it the (at, seq) pop
// order — is identical no matter which API form a caller used.
func (e *Engine) at(t Time, op Op, tag uint8) {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: At(%v) is before now (%v)", t, e.now))
	}
	e.seq++
	e.queue.push(event{at: t, key: e.seq<<8 | uint64(tag), op: op})
}

// Immediately runs fn at the current instant, after all callbacks already
// scheduled for this instant.
func (e *Engine) Immediately(fn func()) { e.Schedule(0, fn) }

// ImmediatelyOp runs op.Run(tag) at the current instant, after all
// callbacks already scheduled for this instant.
func (e *Engine) ImmediatelyOp(op Op, tag uint8) { e.ScheduleOp(0, op, tag) }

// Run executes events in time order until the queue is empty and returns
// the final clock value.
func (e *Engine) Run() Time {
	for e.queue.size > 0 {
		ev := e.queue.pop()
		e.now = ev.at
		e.stepped++
		if e.limit > 0 && e.stepped > e.limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", e.limit, e.now))
		}
		ev.op.Run(ev.tag())
	}
	return e.now
}

// RunUntil executes events whose time is <= deadline, leaves later events
// queued, and advances the clock to min(deadline, last event time). It
// returns true if the queue was drained.
func (e *Engine) RunUntil(deadline Time) bool {
	for e.queue.size > 0 {
		if e.queue.minAt() > deadline {
			e.now = deadline
			return false
		}
		ev := e.queue.pop()
		e.now = ev.at
		e.stepped++
		if e.limit > 0 && e.stepped > e.limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", e.limit, e.now))
		}
		ev.op.Run(ev.tag())
	}
	if e.now < deadline {
		e.now = deadline
	}
	return true
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queue.size }
