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
// schedule themselves through ScheduleOp without capturing a closure (see
// op.go). The pending set is one array sorted by (at, seq) and consumed by
// a cursor (see queue.go).
//
// The kernel is also allocation-free in steady state (see
// docs/PERFORMANCE.md): the queue reuses its backing array, so scheduling
// and dispatch cost no allocations once it has grown to the run's
// high-water mark.
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
	stepped uint64 // events executed since Reset, for the runaway guard
	limit   uint64 // optional max events (0 = unlimited)
	rec     trace.Recorder
}

// NewEngine returns an Engine starting at time 0.
func NewEngine() *Engine { return &Engine{} }

// Reset returns the engine to time 0 with an empty queue, retaining the
// queue's backing array (and the recorder and event limit) so a sequence of
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

// SetEventLimit installs a safety cap on the number of events Run will
// execute between Resets; exceeding it panics. Zero disables the cap.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// SetRecorder attaches a trace recorder. Components built on the engine
// (Resource, Latch) emit contention events through it; nil (the default)
// disables tracing with zero hot-path cost — every emit site nil-checks
// before constructing an event. The Engine itself emits no per-step
// events: with tens of thousands of events per request, a per-step
// record would dwarf the semantic trace (see docs/OBSERVABILITY.md).
func (e *Engine) SetRecorder(r trace.Recorder) { e.rec = r }

// ScheduleOp runs op.Run(tag) after delay simulated seconds: a pooled
// continuation record schedules itself without capturing a closure. A nil
// op, or a negative or NaN delay, panics: in this simulator a negative
// latency is always a modelling bug and silently clamping it would
// corrupt causality. Each call takes the next sequence number, so events
// for the same instant fire in scheduling order.
func (e *Engine) ScheduleOp(delay float64, op Op, tag uint8) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: ScheduleOp with invalid delay %v", delay))
	}
	if op == nil {
		panic("sim: ScheduleOp with nil continuation")
	}
	e.seq++
	e.queue.push(event{at: e.now + delay, key: e.seq<<8 | uint64(tag), op: op})
}

// ImmediatelyOp runs op.Run(tag) at the current instant, after all
// continuations already scheduled for this instant.
func (e *Engine) ImmediatelyOp(op Op, tag uint8) { e.ScheduleOp(0, op, tag) }

// Run executes events in time order until the queue is empty and returns
// the final clock value.
func (e *Engine) Run() Time {
	for e.queue.len() > 0 {
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
