// Package trace is the structured event-tracing layer of the simulator:
// a stable, documented stream of typed events (see docs/OBSERVABILITY.md)
// emitted by the discrete-event kernel (internal/sim) and the tape-system
// simulator (internal/tapesys).
//
// Tracing is opt-in and zero-cost when disabled: every emit site guards on
// a nil Recorder before building the event, so the simulation hot path
// performs no extra allocations or calls when no recorder is attached.
// When enabled, each event is a flat value (no pointers, no maps) whose
// JSONL encoding is byte-deterministic for a given simulation seed — the
// determinism contract in docs/ARCHITECTURE.md extends to traces: same
// seed, same configuration, same trace bytes.
//
// The package provides three recorders:
//
//   - Buffer: an in-memory ring with an optional event cap, used by the
//     run-report aggregation (internal/metrics) and by tests;
//   - JSONLWriter: a streaming one-JSON-object-per-line exporter
//     (cmd/tapesim -trace out.jsonl);
//   - CSVWriter: a streaming CSV exporter with a fixed column set
//     (cmd/tapesim -trace out.csv).
//
// Recorders compose with Tee for simultaneous export and aggregation.
package trace

// Kind labels one simulator event. The string values are part of the
// exported trace schema documented in docs/OBSERVABILITY.md; do not
// renumber or rename without updating the document and the golden trace.
type Kind string

// Event kinds emitted by internal/tapesys (request lifecycle and the
// mount pipeline) and internal/sim (resource contention and latches).
const (
	// KindSubmit marks a request submission (Req, Bytes set).
	KindSubmit Kind = "submit"
	// KindServeStart marks a drive beginning to seek+read one tape group.
	KindServeStart Kind = "serve-start"
	// KindSeek carries the planned total seek time of one tape-group
	// service in Dur; emitted at serve start.
	KindSeek Kind = "seek"
	// KindTransfer carries the planned total transfer time of one
	// tape-group service in Dur; emitted at serve start.
	KindTransfer Kind = "transfer"
	// KindServeEnd marks a drive finishing a tape group; Dur is the whole
	// service span (seek + transfer).
	KindServeEnd Kind = "serve-end"
	// KindRewind marks the start of a switch chain; Dur is the planned
	// rewind+unload time of the outgoing cartridge. Emitted for every
	// switch — an empty drive carries Tape -1 and Dur 0 — so each switch
	// span has an observable start.
	KindRewind Kind = "rewind"
	// KindRobot marks the robot beginning the stow+fetch cartridge moves;
	// Dur is the planned arm occupancy.
	KindRobot Kind = "robot"
	// KindLoad marks the drive loading/threading the incoming tape; Dur
	// is the planned load+thread time.
	KindLoad Kind = "load"
	// KindMounted marks the incoming tape ready at BOT; Dur is the full
	// switch latency for this drive (rewind start to mount, including
	// robot queueing).
	KindMounted Kind = "mounted"
	// KindComplete marks request completion; Dur is the response time.
	KindComplete Kind = "complete"
	// KindDriveFailed marks a drive taken out of service. Manual
	// (FailDrive) failures carry Tape/Req −1; injected failures carry the
	// interrupted request and, for mid-service failures, the tape being
	// read (docs/RESILIENCE.md).
	KindDriveFailed Kind = "drive-failed"
	// KindDriveRepaired marks a failed drive returning to service, stamped
	// at the instant the simulator observes the repair.
	KindDriveRepaired Kind = "drive-repaired"
	// KindRobotFailed marks a robot-arm outage observed by a switch
	// holding the arm; Dur is the remaining outage the holder rides out.
	KindRobotFailed Kind = "robot-failed"
	// KindRobotRepaired marks the robot arm returning to service.
	KindRobotRepaired Kind = "robot-repaired"
	// KindMediaError marks a permanent media error: the read of Tape for
	// Req is lost (Bytes = the abandoned group's payload, Dur = the time
	// already spent in the failed service).
	KindMediaError Kind = "media-error"
	// KindOpRetried marks an interrupted tape-group operation being
	// re-dispatched to a surviving drive; Queue is the attempt number
	// (1 = first retry) and Dur the retry backoff applied.
	KindOpRetried Kind = "op-retried"
	// KindRequestTimedOut marks a request exceeding its timeout
	// (Options.RequestTimeout); stamped at the deadline, with Bytes = the
	// payload delivered by then and Dur = the timeout.
	KindRequestTimedOut Kind = "request-timeout"

	// KindResourceWait marks an acquire that found the resource busy and
	// queued; Queue is the queue depth after enqueueing.
	KindResourceWait Kind = "resource-wait"
	// KindResourceGrant marks a grant firing; Dur is the time the grantee
	// spent queued and Queue the remaining queue depth.
	KindResourceGrant Kind = "resource-grant"
	// KindResourceRelease marks a holder releasing; Dur is the hold time
	// and Queue the number of waiters left behind.
	KindResourceRelease Kind = "resource-release"
	// KindLatchOpen marks a countdown latch reaching zero (the last of a
	// set of parallel activities finished).
	KindLatchOpen Kind = "latch-open"
)

// Kinds returns every declared event kind, in declaration order. The list
// is the schema's source of truth for completeness checks: the golden
// fixtures and docs/OBSERVABILITY.md kind tables are tested against it, so
// a new kind cannot ship unexercised or undocumented.
func Kinds() []Kind {
	return []Kind{
		KindSubmit, KindServeStart, KindSeek, KindTransfer, KindServeEnd,
		KindRewind, KindRobot, KindLoad, KindMounted, KindComplete,
		KindDriveFailed, KindDriveRepaired, KindRobotFailed, KindRobotRepaired,
		KindMediaError, KindOpRetried, KindRequestTimedOut,
		KindResourceWait, KindResourceGrant, KindResourceRelease, KindLatchOpen,
	}
}

// Event is one recorded simulator event. It is a flat value type: emitting
// one performs no heap allocation, and the zero value of every field means
// "not applicable" except where noted. Integer fields use -1 for "not
// scoped to this dimension".
type Event struct {
	// T is the simulated time of the event in seconds from run start.
	T float64
	// Kind is the event type (schema constant, see docs/OBSERVABILITY.md).
	Kind Kind
	// Lib is the library index, -1 when the event is not library-scoped.
	Lib int
	// Drive is the library-local drive index, -1 when not drive-scoped.
	Drive int
	// Tape is the library-local tape index, -1 when not tape-scoped.
	Tape int
	// Req is the request ID being served, -1 when not request-scoped.
	Req int64
	// Span identifies the operation (one drive's serve or switch chain)
	// this event belongs to; 0 when the event is not part of an operation
	// (request lifecycle markers, resource contention, boundary fault
	// sweeps). Span values are opaque, unique within a run, and identical
	// across replays of it, so internal/spans reconstructs operation trees
	// without heuristics.
	Span int64
	// Bytes is the payload size associated with the event, 0 when none.
	Bytes int64
	// Dur is the span duration in seconds for span-style events, 0 for
	// instantaneous markers.
	Dur float64
	// Queue is the relevant queue depth for contention events.
	Queue int
	// Name is the diagnostic name of the emitting component (for
	// sim-level events, the resource name such as "robot-0").
	Name string
}

// Recorder receives simulator events. Implementations must not retain
// references into the event (it is a value) and must tolerate events
// arriving in simulated-time order with ties.
//
// Hot-path contract: emit sites hold a Recorder in a nil-checked field;
// Record is only ever called when tracing is enabled, so implementations
// may allocate freely.
type Recorder interface {
	// Record consumes one event.
	Record(Event)
}

// Buffer is an in-memory Recorder keeping events in emission order, with
// an optional cap on the number retained.
type Buffer struct {
	// Events holds the recorded events in emission order.
	Events []Event
	limit  int
}

// NewBuffer returns a Buffer retaining at most limit events; limit <= 0
// means unbounded.
func NewBuffer(limit int) *Buffer { return &Buffer{limit: limit} }

// Record appends the event, dropping it if the cap is reached. A full
// backing array grows by doubling, never past the cap, so recording n
// events copies each one about twice in total; append's ~1.25× growth for
// large slices copies it about four times.
func (b *Buffer) Record(ev Event) {
	n := len(b.Events)
	if b.limit > 0 && n >= b.limit {
		return
	}
	if n == cap(b.Events) {
		size := max(2*n, 64)
		if b.limit > 0 {
			size = min(size, b.limit)
		}
		grown := make([]Event, n, size)
		copy(grown, b.Events)
		b.Events = grown
	}
	b.Events = append(b.Events, ev)
}

// Len returns the number of retained events.
func (b *Buffer) Len() int { return len(b.Events) }

// Reset discards all retained events, keeping the cap.
func (b *Buffer) Reset() { b.Events = b.Events[:0] }

// Tee is a Recorder fanning each event out to every child recorder.
type Tee []Recorder

// Record forwards the event to every child in order.
func (t Tee) Record(ev Event) {
	for _, r := range t {
		r.Record(ev)
	}
}

// CountByKind tallies events per kind — a convenience for tests and
// report summaries.
func CountByKind(events []Event) map[Kind]int {
	m := make(map[Kind]int)
	for _, ev := range events {
		m[ev.Kind]++
	}
	return m
}
