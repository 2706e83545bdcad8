// Package spans reconstructs causal span trees from the simulator's flat
// trace-event stream (internal/trace) and attributes each request's
// latency to its mechanical phases.
//
// The simulator serves one request at a time (the paper's zero-queueing
// assumption), and every operation-scoped event carries a span ID assigned
// deterministically per drive, so reconstruction needs no heuristics:
//
//   - the submit event opens a request window and the complete event
//     closes it; every event of the request — including robot contention
//     events that carry no request ID — lies between the two;
//   - events with a span ID group into operations: a serve (seek +
//     transfer on one drive) or a switch chain (rewind → robot wait →
//     robot move → load → mounted), including the degraded-mode endings
//     of docs/RESILIENCE.md (drive failures, media errors, retries);
//   - op-retried events link an interrupted operation to the operation
//     that re-dispatched its tape group, so retry chains are explicit
//     edges, not guesses.
//
// Build consumes a stream and returns a Session of fully analyzed
// Requests: per-operation phase decompositions, the critical path (the
// chain of operations and waits that actually bounded the response time),
// and per-phase latency attribution whose sum equals the request's
// mechanical span. Every event is claimed by exactly one request (or the
// boundary bucket for events between requests, or the latch tally for
// request-latch markers); an unclaimable event is an error, not a silent
// drop.
//
// The reconstruction resolves every choice on timestamps, indices, and
// span IDs, so it — and everything derived from it, including the
// cmd/tapetrace breakdown tables — is byte-identical for every recording
// of the same run.
package spans

import (
	"fmt"
	"slices"

	"paralleltape/internal/trace"
)

// Op is one reconstructed drive operation: a serve (seek + transfer of
// one tape group) or a switch chain (rewind → robot → load → mounted).
type Op struct {
	// Span is the operation's trace span ID (opaque, unique per run).
	Span int64
	// Serve is true for a seek+transfer service, false for a switch chain.
	Serve bool
	// Lib is the library index of the operating drive.
	Lib int
	// Drive is the library-local index of the operating drive.
	Drive int
	// Tape is the library-local tape index the operation targeted, -1 when
	// the operation aborted before any event revealed it.
	Tape int
	// Start is the simulated time the operation began.
	Start float64
	// End is the simulated time the operation ended (completion, failure,
	// or its last observed event).
	End float64
	// Bytes is the payload of the tape group being served (serves only).
	Bytes int64
	// Seek is the planned seek time of a serve.
	Seek float64
	// Transfer is the planned transfer time of a serve.
	Transfer float64
	// Rewind is the planned rewind+unload time of a switch (0 when the
	// drive was empty).
	Rewind float64
	// RobotMove is the planned robot stow+fetch motion time of a switch.
	RobotMove float64
	// Load is the planned load+thread time of a switch.
	Load float64
	// RobotOutage is the robot-arm outage time this switch rode out while
	// holding the arm (kind "robot-failed").
	RobotOutage float64
	// Done is true when a serve finished normally (kind "serve-end").
	Done bool
	// Mounted is true when a switch completed its mount (kind "mounted").
	Mounted bool
	// Failed is true when the operation ended with its drive failing
	// (kind "drive-failed" carrying this span).
	Failed bool
	// MediaError is true when a serve ended on a permanent media error.
	MediaError bool
	// Retried is true when this operation's tape group was re-dispatched
	// after the operation was interrupted (kind "op-retried").
	Retried bool
	// RetryOf points at the interrupted operation this one re-dispatched,
	// nil for first dispatches.
	RetryOf *Op
	// Attempt is the 1-based retry attempt number when RetryOf is set.
	Attempt int
	// Events counts the trace events claimed by this operation.
	Events int

	lastT    float64
	tapeHint int // target tape revealed by the op's own retry edge
}

// Elapsed returns the operation's wall-clock span in simulated seconds.
func (op *Op) Elapsed() float64 { return op.End - op.Start }

// TargetTape returns the operation's target tape, falling back to the
// tape named by its retry edge when the operation aborted before any
// stage revealed it; -1 when unknown.
func (op *Op) TargetTape() int {
	if op.Tape >= 0 {
		return op.Tape
	}
	return op.tapeHint
}

// retryEdge is one op-retried event: the interrupted span and the group
// it re-dispatched.
type retryEdge struct {
	t       float64
	lib     int
	tape    int
	span    int64
	attempt int
}

// Request is one reconstructed request: its lifecycle, every operation
// executed on its behalf, and the critical-path phase attribution.
type Request struct {
	// ID is the request ID.
	ID int64
	// Submit is the simulated submission time.
	Submit float64
	// End is the simulated time the mechanical work finished (the
	// complete event's timestamp).
	End float64
	// Response is the reported response time (§6); it equals End − Submit
	// unless the request timed out, in which case it is the timeout.
	Response float64
	// Bytes is the request's total payload.
	Bytes int64
	// BytesServed is the payload delivered by the deadline of a timed-out
	// request (equals Bytes otherwise).
	BytesServed int64
	// TimedOut is true when the request exceeded its deadline.
	TimedOut bool
	// Ops lists every operation run for this request, sorted by
	// (library, drive, start time, span).
	Ops []*Op
	// Incidents holds request-scoped degraded-mode events not tied to an
	// operation span (e.g. drive failures observed between operations,
	// mid-request repairs).
	Incidents []trace.Event
	// Contention holds the robot-queue events (resource wait, grant and
	// release) that occurred inside the request's window; latch events
	// are only counted, in Session.Latches. The requests of a Session share one
	// backing array; each slice's capacity ends at its length, so an
	// append copies rather than overwriting another request's events.
	Contention []trace.Event
	// Critical is the request's critical path: the chronological chain of
	// operations and waits that bounded End − Submit.
	Critical []Step
	// PhaseTotals is the critical-path latency attribution; the entries
	// sum to End − Submit (up to floating-point rounding).
	PhaseTotals [NumPhases]float64
	// Events counts every trace event claimed by this request.
	Events int

	edges []retryEdge
}

// Wall returns the request's mechanical wall-clock span End − Submit
// (equal to Response unless the request timed out).
func (r *Request) Wall() float64 { return r.End - r.Submit }

// Session is the reconstruction of one trace: every request in
// submission order plus the events that fell between request windows.
type Session struct {
	// Requests holds the reconstructed requests in submission order.
	Requests []*Request
	// Boundary holds events outside any request window: fault sweeps at
	// request boundaries and manual drive failures between requests.
	Boundary []trace.Event
	// Events is the number of events analyzed: every event consumed except
	// the latch markers counted in Latches.
	Events int
	// Latches counts latch-open events. They are claimed but excluded from
	// all analysis and counters: they mark the engine's request latch, not
	// mechanical work, and traces recorded by older builds that split a
	// request across several engines carry one per engine, so counting
	// them would make derived outputs depend on how a trace was recorded.
	Latches int
}

// Build reconstructs a Session from a trace-event stream in recorder
// order (in-memory buffer or trace.ParseJSONL output). Every event must
// be claimable under the schema's windowing rules; a span event outside a
// request window, a mismatched request ID, or an unterminated window is
// an error.
func Build(events []trace.Event) (*Session, error) {
	s := &Session{}
	// A contention event carries neither a span nor a request; so do the
	// boundary and latch events, which this bound also counts. Sizing the
	// session's contention slice up front allocates it once.
	n := 0
	for i := range events {
		if events[i].Span == 0 && events[i].Req < 0 {
			n++
		}
	}
	b := builder{ops: make(map[int64]*Op), contention: make([]trace.Event, 0, n)}
	var cur *Request
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case trace.KindLatchOpen:
			s.Latches++
		case trace.KindSubmit:
			if cur != nil {
				return nil, fmt.Errorf("spans: event %d: submit of request %d inside open request %d", i, ev.Req, cur.ID)
			}
			cur = &Request{ID: ev.Req, Submit: ev.T}
			cur.Events++
			b.open()
		case trace.KindComplete:
			if cur == nil || cur.ID != ev.Req {
				return nil, fmt.Errorf("spans: event %d: complete of request %d without matching submit", i, ev.Req)
			}
			cur.Events++
			cur.End = ev.T
			cur.Response = ev.Dur
			cur.Bytes = ev.Bytes
			if !cur.TimedOut {
				cur.BytesServed = ev.Bytes
			}
			cur.Contention = b.close()
			cur.finalize(b.ops)
			s.Requests = append(s.Requests, cur)
			cur = nil
		case trace.KindRequestTimedOut:
			if cur == nil || cur.ID != ev.Req {
				return nil, fmt.Errorf("spans: event %d: request-timeout outside request %d's window", i, ev.Req)
			}
			cur.Events++
			cur.TimedOut = true
			cur.BytesServed = ev.Bytes
		default:
			switch {
			case ev.Span != 0:
				if cur == nil {
					return nil, fmt.Errorf("spans: event %d: span %d event %q outside any request window", i, ev.Span, ev.Kind)
				}
				if ev.Req >= 0 && ev.Req != cur.ID {
					return nil, fmt.Errorf("spans: event %d: request %d event inside request %d's window", i, ev.Req, cur.ID)
				}
				b.claimOp(cur, ev)
			case ev.Req >= 0:
				if cur == nil || cur.ID != ev.Req {
					return nil, fmt.Errorf("spans: event %d: request %d event %q outside its window", i, ev.Req, ev.Kind)
				}
				cur.Events++
				cur.Incidents = append(cur.Incidents, *ev)
			case cur != nil:
				cur.Events++
				b.contention = append(b.contention, *ev)
			default:
				s.Boundary = append(s.Boundary, *ev)
			}
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("spans: request %d has no complete event", cur.ID)
	}
	s.Events = len(events) - s.Latches
	return s, nil
}

// opSlab is the number of Ops Build allocates at a time.
const opSlab = 256

// builder is the state Build reuses from one request to the next, so a
// request costs a few allocations rather than one per operation and
// event list.
type builder struct {
	// ops maps the open request's span IDs to their operations; it is
	// cleared at each submit.
	ops map[int64]*Op
	// slab is the array new Ops are taken from.
	slab []Op
	// contention holds the contention events of every request so far,
	// back to back; from is where the open request's events start.
	contention []trace.Event
	from       int
}

// open starts a request window.
func (b *builder) open() {
	clear(b.ops)
	b.from = len(b.contention)
}

// close ends a request window and returns its contention events, nil when
// there are none. The slice's capacity ends at its length, so appending to
// it copies instead of overwriting the next request's events.
func (b *builder) close() []trace.Event {
	if len(b.contention) == b.from {
		return nil
	}
	return b.contention[b.from:len(b.contention):len(b.contention)]
}

// claimOp folds one span-carrying event into its request's operation.
func (b *builder) claimOp(r *Request, ev *trace.Event) {
	op := b.ops[ev.Span]
	if op == nil {
		if len(b.slab) == cap(b.slab) {
			b.slab = make([]Op, 0, opSlab)
		}
		b.slab = append(b.slab, Op{Span: ev.Span, Lib: int(ev.Lib), Drive: int(ev.Drive), Tape: -1, tapeHint: -1, Start: ev.T})
		op = &b.slab[len(b.slab)-1]
		b.ops[ev.Span] = op
		r.Ops = append(r.Ops, op)
	}
	r.Events++
	op.Events++
	if ev.T > op.lastT {
		op.lastT = ev.T
	}
	switch ev.Kind {
	case trace.KindServeStart:
		op.Serve = true
		op.Start = ev.T
		op.Tape = int(ev.Tape)
		op.Bytes = ev.Bytes
	case trace.KindSeek:
		op.Serve = true
		op.Seek = ev.Dur
	case trace.KindTransfer:
		op.Serve = true
		op.Transfer = ev.Dur
	case trace.KindServeEnd:
		op.Done = true
		op.End = ev.T
	case trace.KindRewind:
		op.Start = ev.T
		op.Rewind = ev.Dur
	case trace.KindRobot:
		op.Tape = int(ev.Tape)
		op.RobotMove = ev.Dur
	case trace.KindLoad:
		op.Tape = int(ev.Tape)
		op.Load = ev.Dur
	case trace.KindMounted:
		op.Tape = int(ev.Tape)
		op.Mounted = true
		op.End = ev.T
	case trace.KindRobotFailed:
		op.RobotOutage += ev.Dur
	case trace.KindMediaError:
		op.MediaError = true
		op.End = ev.T
	case trace.KindDriveFailed:
		op.Failed = true
		op.End = ev.T
	case trace.KindOpRetried:
		op.Retried = true
		op.tapeHint = int(ev.Tape)
		r.edges = append(r.edges, retryEdge{t: ev.T, lib: int(ev.Lib), tape: int(ev.Tape), span: ev.Span, attempt: int(ev.Queue)})
	}
}

// finalize closes a request at its complete event: operation end times
// are settled, operations sorted into a deterministic order, retry edges
// resolved into links, and the critical path computed. ops maps the
// request's span IDs to its operations.
func (r *Request) finalize(ops map[int64]*Op) {
	for _, op := range r.Ops {
		if !op.Done && !op.Mounted && !op.Failed && !op.MediaError {
			op.End = op.lastT
		}
	}
	slices.SortFunc(r.Ops, func(a, b *Op) int {
		if a.Lib != b.Lib {
			return a.Lib - b.Lib
		}
		if a.Drive != b.Drive {
			return a.Drive - b.Drive
		}
		if a.Start != b.Start {
			if a.Start < b.Start {
				return -1
			}
			return 1
		}
		if a.Span < b.Span {
			return -1
		}
		if a.Span > b.Span {
			return 1
		}
		return 0
	})
	r.linkRetries(ops)
	r.computeCritical()
}

// linkRetries connects each op-retried edge to the operation that
// re-dispatched the interrupted group: the earliest-starting unlinked
// switch in the same library targeting the same tape at or after the
// retry instant. An edge may stay unlinked when the retry was abandoned
// in queue (no surviving drive ever picked it up). The resolution only
// reads deterministic fields (timestamps, indices, span IDs), so links
// are identical for every recording of the same run.
func (r *Request) linkRetries(ops map[int64]*Op) {
	if len(r.edges) == 0 {
		return
	}
	slices.SortFunc(r.edges, func(a, b retryEdge) int {
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		if a.lib != b.lib {
			return a.lib - b.lib
		}
		if a.tape != b.tape {
			return a.tape - b.tape
		}
		if a.span < b.span {
			return -1
		}
		if a.span > b.span {
			return 1
		}
		return 0
	})
	for _, e := range r.edges {
		failed := ops[e.span]
		var best *Op
		for _, op := range r.Ops {
			if op.Serve || op.RetryOf != nil || op.Lib != e.lib || op.Span == e.span {
				continue
			}
			if op.Start < e.t || op.TargetTape() != e.tape {
				continue
			}
			if best == nil || op.Start < best.Start || (op.Start == best.Start && op.Span < best.Span) {
				best = op
			}
		}
		if best != nil && failed != nil {
			best.RetryOf = failed
			best.Attempt = e.attempt
		}
	}
}
