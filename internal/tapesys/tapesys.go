// Package tapesys is the multiple-tape-library simulator of §6: n libraries
// each with d drives and one robot arm, executing retrieval requests
// against a placement produced by internal/placement.
//
// The simulator follows the paper's stated mechanics:
//
//   - requests are submitted one at a time with no queueing; mount state and
//     head positions persist between requests;
//   - requested objects on mounted tapes are served before those tapes can
//     be unmounted; switch drives whose mounted tape holds no requested
//     object begin switching to pending offline tapes immediately;
//   - a tape switch is rewind → unload → robot store + fetch (robots are
//     per-library and FIFO) → load + thread; the freshly loaded tape starts
//     with its head at BOT;
//   - reads within one tape follow the cheaper of two sweeps over the
//     tape (tape.PlanReads), which is the minimal-seek order whenever the
//     head starts at or before every requested extent, as after a fresh
//     mount;
//   - the request response time is the latest drive finish time; the
//     request's seek and transfer times are those of that last-finishing
//     drive, and switch time is the remainder (§6 "Metrics").
//
// Victim selection among switchable drives uses the least-popular
// replacement policy of [11]: the eligible drive holding the least
// accumulated probability switches first.
//
// # Observability
//
// The simulator is fully instrumented: attach a trace.Recorder with
// System.SetRecorder (or EnableTrace for an in-memory buffer) and every
// stage of every request — submission, per-drive seek/transfer spans, the
// rewind → robot → load → mounted switch pipeline, robot queue
// contention, and completion — is emitted as a typed event with library,
// drive, tape, and request IDs. The schema is defined in internal/trace
// and documented in docs/OBSERVABILITY.md; per-component timelines and
// run reports are built from the stream by internal/metrics. With no
// recorder attached tracing costs nothing on the hot path. Aggregate
// per-drive and per-robot accounting (DriveReport, RobotReport,
// WriteUtilization) is always on, trace or not.
//
// # Allocation model
//
// Submit is the simulator's hot path — a full experiment sweep issues
// hundreds of thousands of requests — so all of its per-request state is
// scratch owned by the System and reused across submissions (see
// docs/PERFORMANCE.md): request grouping runs through a catalog.Grouper
// arena, read planning through a tape.Planner, per-drive accounting is a
// dense slice, pending queues and victim rankings reuse their backing
// arrays, and the serve/switch continuations are pooled objects whose
// closures are created once. In steady state (no recorder, scratch grown
// to the workload's high-water mark) Submit performs no heap allocations.
package tapesys

import (
	"fmt"
	"math"
	"slices"

	"paralleltape/internal/catalog"
	"paralleltape/internal/faults"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/sim"
	"paralleltape/internal/tape"
	"paralleltape/internal/trace"
)

// drive is the persistent state of one tape drive.
type drive struct {
	lib     int
	idx     int
	gidx    int   // global drive index (dense accounting key)
	mounted int   // library-local tape index, -1 when empty
	headPos int64 // byte offset of the head on the mounted tape
	pinned  bool
	failed  bool

	// manual marks a FailDrive'd drive: never auto-repaired. Injected
	// failures instead carry the injector's return-to-service instant in
	// repairAt (see recovery.go).
	manual   bool
	repairAt float64
	// busy marks a drive with an in-flight serve or switch continuation;
	// the recovery layer uses it to find idle drives for retried work and
	// to decide who owns a failed drive's mounted cartridge.
	busy bool

	// claimed marks the drive as occupied by the request currently being
	// dispatched (serving or switching); valid only during Submit's
	// synchronous dispatch phase.
	claimed bool

	// spanSeq numbers this drive's operations (serves and switch chains)
	// for trace span IDs; see nextSpan.
	spanSeq int64

	// lifetime accounting
	busySeconds   float64
	switchSeconds float64
	bytesMoved    int64
	mounts        int
}

// nextSpan allocates the next operation span ID for this drive: the global
// drive index in the high 31 bits, a per-drive sequence number in the low
// 32. IDs are unique within a run and opaque to consumers; each drive
// executes its operations in a deterministic order, so a replay of the
// same run assigns the same IDs.
func (d *drive) nextSpan() int64 {
	d.spanSeq++
	return int64(d.gidx+1)<<32 | d.spanSeq
}

// library is the persistent state of one tape library.
type library struct {
	idx    int
	robot  *sim.Resource
	drives []*drive
	// repair is the library's embedded repair-wakeup continuation
	// (recovery.go): arming the one liveness-critical recovery event is a
	// typed schedule with no closure capture.
	repair repairWake
}

// driveWithTape returns the library drive that currently has tape index ti
// mounted, or nil. The mount table is the drives themselves: d.mounted is
// authoritative, and a library has only a handful of drives, so the linear
// scan beats the map the library used to carry (no hashing on the Submit
// hot path, no mount/unmount bookkeeping to keep in sync).
func (l *library) driveWithTape(ti int) *drive {
	for _, d := range l.drives {
		if d.mounted == ti {
			return d
		}
	}
	return nil
}

// mountedService pairs a drive with the request group its mounted tape
// already holds.
type mountedService struct {
	d *drive
	g catalog.TapeGroup
}

// doneFlag is the request latch's continuation: it records that the last
// tape group of the current request finished. Being a typed sim.Op, arming
// the latch (Submit) captures no closure.
type doneFlag bool

// Run implements sim.Op.
func (f *doneFlag) Run(uint8) { *f = true }

// System is a simulated parallel tape storage system. Create with New or
// NewWithOptions, then Submit requests; state persists across submissions.
type System struct {
	hw tape.Hardware
	// locateRate caches hw.LocateRate() so the per-group read-planning call
	// passes two scalars instead of copying the Hardware struct (tape.Planner
	// doc); same divisor, bit-identical plans.
	locateRate float64
	cat        *catalog.Catalog
	prob       map[tape.Key]float64
	libs       []*library
	opts       Options
	eng        *sim.Engine // clock and event queue of every library
	rec        trace.Recorder

	// inj is the fault injector (nil when Options.Faults is nil or
	// injects nothing); deadline is the current request's timeout instant
	// (+Inf when timeouts are off). See recovery.go.
	inj      *faults.Injector
	deadline float64

	totalBytes int64
	// Lifetime counters behind TotalSwitches, TotalRetries and
	// TotalMediaErrors.
	totalSwitches    int
	totalRetries     int
	totalMediaErrors int

	// Reusable per-request scratch (see the package comment's allocation
	// model). Submit runs one request to completion before returning, so
	// exactly one request is in flight and its transient state can live on
	// the System.
	grouper     *catalog.Grouper
	planner     tape.Planner
	latch       *sim.Latch // counts the current request's open tape groups
	reqDone     doneFlag
	curReq      int64
	curMet      RequestMetrics
	acct        []driveAcct           // dense, indexed by drive.gidx
	pending     [][]catalog.TapeGroup // per-library offline-group queues
	pendHead    []int                 // consumption cursor per library
	retryQ      [][]retryEntry        // per-library queues of ready retried groups
	retryHead   []int                 // consumption cursor per library
	repairArmed []bool                // per-library: a repair wakeup event is scheduled
	mountedSvc  []mountedService
	eligible    []*drive
	victimCmp   func(a, b *drive) int
	servePool   []*serveOp
	switchPool  []*switchOp
	retryPool   []*retryOp
}

// New builds a system in the placement's initial state with the paper's
// default scheduling (largest-pending-first, least-popular victims).
func New(hw tape.Hardware, pl *placement.Result) (*System, error) {
	return NewWithOptions(hw, pl, Options{})
}

// NewWithOptions builds a system with explicit scheduling options.
func NewWithOptions(hw tape.Hardware, pl *placement.Result, opts Options) (*System, error) {
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := validatePlacementShape(hw, pl); err != nil {
		return nil, err
	}
	s := &System{
		hw:         hw,
		locateRate: hw.LocateRate(),
		opts:       opts,
		eng:        sim.NewEngine(),
		deadline:   math.Inf(1),
	}
	s.latch = sim.NewLatch(0).Observe(s.eng, "request")
	if opts.Faults != nil && opts.Faults.Enabled() {
		inj, err := faults.New(*opts.Faults, hw.Libraries, hw.DrivesPerLib, hw.TapesPerLib)
		if err != nil {
			return nil, err
		}
		s.inj = inj
	}
	for lib := 0; lib < hw.Libraries; lib++ {
		l := &library{
			idx:   lib,
			robot: sim.NewResource(s.eng, fmt.Sprintf("robot-%d", lib)),
		}
		l.repair = repairWake{s: s, l: l}
		for d := 0; d < hw.DrivesPerLib; d++ {
			dr := &drive{lib: lib, idx: d, gidx: lib*hw.DrivesPerLib + d, mounted: -1}
			l.drives = append(l.drives, dr)
		}
		s.libs = append(s.libs, l)
	}
	s.acct = make([]driveAcct, hw.Libraries*hw.DrivesPerLib)
	s.pending = make([][]catalog.TapeGroup, hw.Libraries)
	s.pendHead = make([]int, hw.Libraries)
	s.retryQ = make([][]retryEntry, hw.Libraries)
	s.retryHead = make([]int, hw.Libraries)
	s.repairArmed = make([]bool, hw.Libraries)
	// victimLess is a total order (ties break on the unique drive index),
	// so the unstable sort ranks victims deterministically. The comparator
	// is created once so the per-request sort allocates nothing.
	s.victimCmp = func(a, b *drive) int {
		if s.victimLess(a, b) {
			return -1
		}
		if s.victimLess(b, a) {
			return 1
		}
		return 0
	}
	if err := s.applyPlacement(pl); err != nil {
		return nil, err
	}
	return s, nil
}

// validatePlacementShape checks a placement against the hardware geometry.
func validatePlacementShape(hw tape.Hardware, pl *placement.Result) error {
	if pl == nil || pl.Catalog == nil {
		return fmt.Errorf("tapesys: nil placement")
	}
	if len(pl.InitialMounts) != hw.Libraries {
		return fmt.Errorf("tapesys: placement has %d libraries, hardware %d",
			len(pl.InitialMounts), hw.Libraries)
	}
	for lib := 0; lib < hw.Libraries; lib++ {
		if len(pl.InitialMounts[lib]) != hw.DrivesPerLib || len(pl.Pinned[lib]) != hw.DrivesPerLib {
			return fmt.Errorf("tapesys: library %d mount table sized %d/%d, want %d",
				lib, len(pl.InitialMounts[lib]), len(pl.Pinned[lib]), hw.DrivesPerLib)
		}
	}
	return nil
}

// applyPlacement points the system at a placement and installs its initial
// mount state. Drive lifetime accounting is zeroed.
func (s *System) applyPlacement(pl *placement.Result) error {
	s.cat = pl.Catalog
	s.prob = pl.TapeProb
	s.grouper = catalog.NewGrouper(pl.Catalog)
	for lib, l := range s.libs {
		for d, dr := range l.drives {
			*dr = drive{lib: lib, idx: d, gidx: dr.gidx,
				mounted: pl.InitialMounts[lib][d], pinned: pl.Pinned[lib][d]}
			if dr.mounted >= 0 {
				for _, prev := range l.drives[:d] {
					if prev.mounted == dr.mounted {
						return fmt.Errorf("tapesys: library %d tape %d mounted twice", lib, dr.mounted)
					}
				}
			}
		}
	}
	return nil
}

// Reset restores the system to placement pl's initial state — fresh clock,
// empty event queue, initial mounts, zeroed accounting — while reusing all
// engine and scratch allocations (event queue, grouping arena, operation
// pools). The recorder attachment survives. It is the cheap way to run a
// sequence of independent simulations (e.g. one per seed) on identical
// hardware: only the placement may change, and its shape must match the
// system's hardware.
func (s *System) Reset(pl *placement.Result) error {
	if err := validatePlacementShape(s.hw, pl); err != nil {
		return err
	}
	s.eng.Reset()
	s.totalSwitches = 0
	s.totalRetries = 0
	s.totalMediaErrors = 0
	for _, l := range s.libs {
		l.robot.Reset()
	}
	if s.inj != nil {
		s.inj.Reset()
	}
	for lib := range s.retryQ {
		s.retryQ[lib] = s.retryQ[lib][:0]
		s.retryHead[lib] = 0
		s.repairArmed[lib] = false
	}
	s.deadline = math.Inf(1)
	s.totalBytes = 0
	return s.applyPlacement(pl)
}

// RequestMetrics is the per-request measurement set of §6.
type RequestMetrics struct {
	Request  model.RequestID
	Bytes    int64
	Response float64 // seconds from submission to last transfer completion
	Seek     float64 // seek time of the last-finishing drive
	Transfer float64 // transfer time of the last-finishing drive
	Switch   float64 // Response − Seek − Transfer (includes robot waits)
	// Diagnostics beyond the paper's metrics:
	Switches     int     // tape switches performed for this request
	TapesTouched int     // distinct cartridges read
	DrivesUsed   int     // distinct drives that transferred data
	RobotWait    float64 // summed time switches spent queued for robots
	SumSeek      float64 // seek time summed over all drives
	SumTransfer  float64 // transfer time summed over all drives
	MountedRatio float64 // fraction of bytes served from already-mounted tapes

	// Degraded-mode accounting (docs/RESILIENCE.md). On a failure-free
	// untimed run BytesServed equals Bytes and the rest stay zero.
	BytesServed  int64 // payload delivered by the request deadline
	Retries      int   // fault-interrupted operations re-dispatched to surviving drives
	MediaErrors  int   // tape groups lost to permanent media errors
	FailedGroups int   // tape groups abandoned (media errors, retry exhaustion, dead libraries)
	FailedBytes  int64 // payload of the abandoned groups
	TimedOut     bool  // the request exceeded Options.RequestTimeout
}

// Bandwidth returns the request's effective data retrieval bandwidth in
// bytes/second (§3: transferred size over response time).
func (m RequestMetrics) Bandwidth() float64 {
	if m.Response <= 0 {
		return 0
	}
	return float64(m.Bytes) / m.Response
}

// Goodput returns the delivered bandwidth in bytes/second — BytesServed
// over Response — which discounts abandoned groups and payload that
// arrived after the request deadline. On a failure-free run it equals
// Bandwidth.
func (m RequestMetrics) Goodput() float64 {
	if m.Response <= 0 {
		return 0
	}
	return float64(m.BytesServed) / m.Response
}

// driveAcct accumulates one drive's work during a single request.
type driveAcct struct {
	seek, xfer float64
	finish     float64
	moved      int64
	used       bool
}

// serveOp is the pooled continuation of one tape service: it carries the
// drive, group, and plan from schedule time to completion time, and it is
// its own completion event (sim.Op), so scheduling a service captures no
// closure and performs no allocation.
type serveOp struct {
	s    *System
	d    *drive
	g    catalog.TapeGroup
	plan tape.ReadPlan
	// span is the trace span ID of this service (drive.nextSpan), carried
	// onto every event the op emits.
	span int64

	// Recovery-layer state (recovery.go): mode says whether the injector
	// cut this service short and how, start is the schedule instant for
	// partial-work accounting, attempts counts prior re-dispatches of the
	// group.
	mode     serveMode
	start    float64
	attempts int
}

// serveMode tags a service continuation with its fault outcome, decided at
// schedule time from the injector's deterministic timelines.
type serveMode uint8

const (
	// serveOK completes the full seek+transfer span.
	serveOK serveMode = iota
	// serveDriveFail ends early at the serving drive's failure instant.
	serveDriveFail
	// serveMedia ends early at a permanent media error on the cartridge.
	serveMedia
)

func (s *System) getServeOp() *serveOp {
	if n := len(s.servePool); n > 0 {
		op := s.servePool[n-1]
		s.servePool[n-1] = nil
		s.servePool = s.servePool[:n-1]
		return op
	}
	return &serveOp{s: s}
}

func (s *System) putServeOp(op *serveOp) {
	op.d = nil
	op.g = catalog.TapeGroup{}
	op.plan = tape.ReadPlan{}
	s.servePool = append(s.servePool, op)
}

// Run implements sim.Op: a service has one stage, completion.
func (op *serveOp) Run(uint8) { op.finish() }

// finish is the service-completion event: account the seek/transfer work,
// free the drive, and let it pick up pending switch work. Services the
// fault layer cut short — or whose drive was manually failed while the op
// was in flight — divert to the recovery path instead.
func (op *serveOp) finish() {
	if op.mode != serveOK || op.d.failed {
		op.interrupted()
		return
	}
	s, d, g, plan, span := op.s, op.d, op.g, op.plan, op.span
	s.putServeOp(op)
	d.busy = false
	d.headPos = plan.EndPos
	a := &s.acct[d.gidx]
	a.used = true
	a.seek += plan.SeekTotal
	a.xfer += plan.XferTotal
	a.moved += g.Bytes
	a.finish = s.eng.Now()
	d.busySeconds += plan.SeekTotal + plan.XferTotal
	d.bytesMoved += g.Bytes
	if s.eng.Now() <= s.deadline {
		s.curMet.BytesServed += g.Bytes
	}
	s.emit(trace.Event{Kind: trace.KindServeEnd, Lib: int32(d.lib), Drive: int32(d.idx), Tape: int32(g.Tape.Index),
		Req: s.curReq, Span: span, Bytes: g.Bytes, Dur: plan.SeekTotal + plan.XferTotal})
	s.latch.Done()
	s.afterService(d)
}

// switchOp is the pooled continuation chain of one tape switch. The op is
// one sim.Op whose stage tags select the chain step (rewind done → robot
// outage wait → move done → load done, see switchOp.Run) and one
// sim.Grantee for the robot grant, so every stage transition schedules the
// record itself — no closures, no captures, no allocation.
type switchOp struct {
	s           *System
	d           *drive
	l           *library
	g           catalog.TapeGroup
	switchBegin float64
	hadTape     bool
	grant       *sim.Grant
	// span is the trace span ID of this switch chain (drive.nextSpan),
	// carried onto every event the op emits.
	span int64
	// attempts counts prior fault-interrupted dispatches of the group
	// (recovery.go); carried through to the serve so a retried group keeps
	// its retry budget.
	attempts int
}

// Switch-chain stage tags: the event a switchOp schedules carries the tag
// of the stage to run next, dispatched by switchOp.Run's jump table.
const (
	tagSwitchPrep  = iota // rewind+unload finished → queue for the robot
	tagSwitchRobot        // robot outage waited out → start cell moves
	tagSwitchMove         // cell moves finished → release arm, load+thread
	tagSwitchLoad         // load+thread finished → mount and serve
)

// Run implements sim.Op, dispatching the switch chain's next stage.
func (op *switchOp) Run(tag uint8) {
	switch tag {
	case tagSwitchPrep:
		op.afterPrep()
	case tagSwitchRobot:
		op.afterRobot()
	case tagSwitchMove:
		op.afterMove()
	case tagSwitchLoad:
		op.afterLoad()
	}
}

// Granted implements sim.Grantee: the robot arm is ours.
func (op *switchOp) Granted(g *sim.Grant) { op.onGrant(g) }

func (s *System) getSwitchOp() *switchOp {
	if n := len(s.switchPool); n > 0 {
		op := s.switchPool[n-1]
		s.switchPool[n-1] = nil
		s.switchPool = s.switchPool[:n-1]
		return op
	}
	return &switchOp{s: s}
}

func (s *System) putSwitchOp(op *switchOp) {
	op.d = nil
	op.l = nil
	op.g = catalog.TapeGroup{}
	op.grant = nil
	s.switchPool = append(s.switchPool, op)
}

// afterPrep runs once the outgoing cartridge has rewound and unloaded (or
// immediately for an empty drive): the cartridge has left the drive, so
// queue for the robot.
func (op *switchOp) afterPrep() {
	if op.abortIfDown() {
		return
	}
	d, l := op.d, op.l
	op.hadTape = d.mounted >= 0
	if op.hadTape {
		d.mounted = -1
	}
	l.robot.AcquireOp(op)
}

// onGrant runs holding the robot. If the arm is inside an injected outage
// window the switch rides it out while holding the grant — followers queue
// behind it, which is exactly the degraded-mode contract of
// docs/RESILIENCE.md — otherwise the cell moves start immediately.
func (op *switchOp) onGrant(grant *sim.Grant) {
	s, d := op.s, op.d
	op.grant = grant
	if s.inj != nil {
		now := s.eng.Now()
		if down, until := s.inj.RobotDown(d.lib, now); down {
			s.emit(trace.Event{Kind: trace.KindRobotFailed, Lib: int32(d.lib), Drive: int32(d.idx),
				Tape: int32(op.g.Tape.Index), Req: s.curReq, Span: op.span, Dur: until - now})
			s.eng.ScheduleOp(until-now, op, tagSwitchRobot)
			return
		}
	}
	op.moves()
}

// afterRobot resumes a switch that waited out a robot outage.
func (op *switchOp) afterRobot() {
	s, d := op.s, op.d
	s.emit(trace.Event{Kind: trace.KindRobotRepaired, Lib: int32(d.lib), Drive: int32(d.idx),
		Tape: int32(op.g.Tape.Index), Req: s.curReq, Span: op.span})
	op.moves()
}

// moves performs the robot cell moves (stow the outgoing cartridge if any,
// fetch the target) while holding the arm.
func (op *switchOp) moves() {
	s, d := op.s, op.d
	move := s.hw.CellToDrive // fetch the target cartridge
	if op.hadTape {
		move += s.hw.CellToDrive // first stow the old one
	}
	s.emit(trace.Event{Kind: trace.KindRobot, Lib: int32(d.lib), Drive: int32(d.idx), Tape: int32(op.g.Tape.Index),
		Req: s.curReq, Span: op.span, Dur: move})
	s.eng.ScheduleOp(move, op, tagSwitchMove)
}

// afterMove runs when the robot finishes: release it and start load+thread.
func (op *switchOp) afterMove() {
	s, d := op.s, op.d
	op.grant.Release()
	op.grant = nil
	if op.abortIfDown() {
		return
	}
	s.emit(trace.Event{Kind: trace.KindLoad, Lib: int32(d.lib), Drive: int32(d.idx), Tape: int32(op.g.Tape.Index),
		Req: s.curReq, Span: op.span, Dur: s.hw.LoadThread})
	s.eng.ScheduleOp(s.hw.LoadThread, op, tagSwitchLoad)
}

// afterLoad completes the mount and serves the group.
func (op *switchOp) afterLoad() {
	if op.abortIfDown() {
		return
	}
	s, d, g := op.s, op.d, op.g
	switchBegin, attempts, span := op.switchBegin, op.attempts, op.span
	s.putSwitchOp(op)
	d.mounted = g.Tape.Index
	d.headPos = 0
	d.mounts++
	d.switchSeconds += s.eng.Now() - switchBegin
	s.emit(trace.Event{Kind: trace.KindMounted, Lib: int32(d.lib), Drive: int32(d.idx), Tape: int32(g.Tape.Index),
		Req: s.curReq, Span: span, Dur: s.eng.Now() - switchBegin})
	s.serve(d, g, attempts)
}

// serve schedules the seek+transfer span for group g on drive d, planned
// from the drive's current head position. attempts is the group's prior
// fault-interrupted dispatch count (0 on the healthy path). With an
// injector attached the span may be cut short by a scheduled drive failure
// or a media error (armServeFaults); the emitted seek/transfer events
// always carry the full planned spans.
func (s *System) serve(d *drive, g catalog.TapeGroup, attempts int) {
	op := s.getServeOp()
	op.d = d
	op.g = g
	op.plan = s.planner.PlanRates(s.locateRate, s.hw.TransferRate, d.headPos, g.Extents)
	op.mode = serveOK
	op.start = s.eng.Now()
	op.attempts = attempts
	op.span = d.nextSpan()
	d.busy = true
	span := op.plan.SeekTotal + op.plan.XferTotal
	if s.inj != nil {
		span = s.armServeFaults(op, span)
	}
	if s.rec != nil {
		s.emit(trace.Event{Kind: trace.KindServeStart, Lib: int32(d.lib), Drive: int32(d.idx), Tape: int32(g.Tape.Index),
			Req: s.curReq, Span: op.span, Bytes: g.Bytes})
		s.emit(trace.Event{Kind: trace.KindSeek, Lib: int32(d.lib), Drive: int32(d.idx), Tape: int32(g.Tape.Index),
			Req: s.curReq, Span: op.span, Dur: op.plan.SeekTotal})
		s.emit(trace.Event{Kind: trace.KindTransfer, Lib: int32(d.lib), Drive: int32(d.idx), Tape: int32(g.Tape.Index),
			Req: s.curReq, Span: op.span, Bytes: g.Bytes, Dur: op.plan.XferTotal})
	}
	s.eng.ScheduleOp(span, op, 0)
}

// startSwitch begins the rewind → robot → load pipeline moving drive d to
// the cartridge of group g. attempts is the group's prior
// fault-interrupted dispatch count (0 on the healthy path).
func (s *System) startSwitch(d *drive, g catalog.TapeGroup, attempts int) {
	s.curMet.Switches++
	s.totalSwitches++
	op := s.getSwitchOp()
	op.d = d
	op.l = s.libs[d.lib]
	op.g = g
	op.attempts = attempts
	op.switchBegin = s.eng.Now()
	op.span = d.nextSpan()
	d.busy = true
	prep := 0.0
	if d.mounted >= 0 {
		prep = s.hw.RewindTime(d.headPos) + s.hw.Unload
	}
	// Every switch chain opens with a rewind event — Dur 0 and Tape -1 for
	// an empty drive — so span reconstruction sees the chain's start even
	// when the chain aborts before any other stage.
	s.emit(trace.Event{Kind: trace.KindRewind, Lib: int32(d.lib), Drive: int32(d.idx), Tape: int32(d.mounted),
		Req: s.curReq, Span: op.span, Dur: prep})
	s.eng.ScheduleOp(prep, op, tagSwitchPrep)
}

// takePending pops the next offline group for a library.
func (s *System) takePending(lib int) (catalog.TapeGroup, bool) {
	if s.pendHead[lib] >= len(s.pending[lib]) {
		return catalog.TapeGroup{}, false
	}
	g := s.pending[lib][s.pendHead[lib]]
	s.pendHead[lib]++
	return g, true
}

// afterService decides a drive's next move once it finishes a tape. With
// an injector attached it first checks whether the drive's failure window
// opened exactly at service end; queued retried groups take priority over
// the request's original pending queue.
func (s *System) afterService(d *drive) {
	if d.pinned {
		return
	}
	if s.inj != nil && !d.failed {
		if down, until := s.inj.DriveDown(d.gidx, s.eng.Now()); down {
			s.observeDriveFailure(d, until, -1, s.curReq, 0)
			s.pump(d.lib)
			return
		}
	}
	if g, attempts, ok := s.takeQueued(d.lib); ok {
		s.startSwitch(d, g, attempts)
	}
}

// emit stamps the event with the current simulated time and records it.
// The nil check keeps the disabled path free of any tracing cost.
func (s *System) emit(ev trace.Event) {
	if s.rec == nil {
		return
	}
	ev.T = s.eng.Now()
	s.rec.Record(ev)
}

// emitAt records a system-level event stamped with time t.
func (s *System) emitAt(ev trace.Event, t float64) {
	if s.rec == nil {
		return
	}
	ev.T = t
	s.rec.Record(ev)
}

// Submit executes one request to completion and returns its metrics. The
// request is dispatched synchronously on the calling goroutine, then the
// engine runs until the system is idle again (the paper's zero-queueing
// assumption). All transient state lives in System-owned scratch; see the
// package comment's allocation model.
func (s *System) Submit(r *model.Request) (RequestMetrics, error) {
	groups, err := s.grouper.Group(r)
	if err != nil {
		return RequestMetrics{}, err
	}
	t0 := s.eng.Now()
	if s.inj != nil {
		s.sweepFaults(t0)
	}
	s.deadline = math.Inf(1)
	if s.opts.RequestTimeout > 0 {
		s.deadline = t0 + s.opts.RequestTimeout
	}
	s.curReq = int64(r.ID)
	s.curMet = RequestMetrics{Request: r.ID, TapesTouched: len(groups)}
	met := &s.curMet
	s.emitAt(trace.Event{Kind: trace.KindSubmit, Lib: -1, Drive: -1, Tape: -1, Req: s.curReq}, t0)

	for i := range s.acct {
		s.acct[i] = driveAcct{}
	}
	robotWait0 := s.robotWaitTotal()
	s.reqDone = false

	// Per-library pending queues of offline tape groups, largest first so
	// long transfers start earliest (LPT ordering keeps the makespan low).
	for lib := range s.pending {
		s.pending[lib] = s.pending[lib][:0]
		s.pendHead[lib] = 0
		if s.inj != nil {
			s.retryQ[lib] = s.retryQ[lib][:0]
			s.retryHead[lib] = 0
			s.repairArmed[lib] = false
		}
	}
	var mountedBytes int64
	mounted := s.mountedSvc[:0]
	for _, g := range groups {
		met.Bytes += g.Bytes
		if d := s.libs[g.Tape.Library].driveWithTape(g.Tape.Index); d != nil {
			mounted = append(mounted, mountedService{d: d, g: g})
			mountedBytes += g.Bytes
		} else {
			s.pending[g.Tape.Library] = append(s.pending[g.Tape.Library], g)
		}
	}
	s.mountedSvc = mounted
	for lib := range s.pending {
		sortPending(s.pending[lib], s.opts.Pending)
	}
	if met.Bytes > 0 {
		met.MountedRatio = float64(mountedBytes) / float64(met.Bytes)
	}
	s.latch.Reset(len(groups))

	// Phase 1: drives whose mounted tape holds requested objects are
	// claimed by this request first.
	for _, l := range s.libs {
		for _, d := range l.drives {
			d.claimed = false
		}
	}
	for _, ms := range mounted {
		ms.d.claimed = true
	}
	// Phase 2: eligible idle switch drives start switching immediately.
	// Eligible = not pinned, not serving this request. Victims in
	// least-popular-mounted-tape order (empty drives first).
	for lib := range s.libs {
		if len(s.pending[lib]) == 0 {
			continue
		}
		eligible := s.eligible[:0]
		for _, d := range s.libs[lib].drives {
			if d.pinned || d.failed || d.claimed {
				continue
			}
			eligible = append(eligible, d)
		}
		s.eligible = eligible
		slices.SortFunc(eligible, s.victimCmp)
		for _, d := range eligible {
			g, ok := s.takePending(lib)
			if !ok {
				break
			}
			d.claimed = true
			s.startSwitch(d, g, 0)
		}
		if s.pendHead[lib] < len(s.pending[lib]) {
			// Remaining groups wait for serving drives to free up; require
			// at least one unpinned drive in this library to guarantee
			// progress.
			hasSwitcher := false
			for _, d := range s.libs[lib].drives {
				if !d.pinned && !d.failed {
					hasSwitcher = true
					break
				}
			}
			if !hasSwitcher {
				if s.inj == nil {
					return RequestMetrics{}, fmt.Errorf(
						"tapesys: library %d has offline requested tapes but no switchable drive", lib)
				}
				// Degraded mode: wait for a repair if one is scheduled,
				// abandon the stranded groups otherwise (recovery.go).
				s.stall(lib)
			}
		}
	}
	// Kick off mounted services after switch dispatch so the claimed marks
	// were complete; simulated start time is identical (same instant).
	for _, ms := range mounted {
		s.serve(ms.d, ms.g, 0)
	}

	// Arm the request latch and run the event loop to quiescence. A latch
	// armed at zero fires synchronously.
	s.latch.WaitOp(&s.reqDone, 0)
	s.eng.Run()
	if !s.reqDone {
		return RequestMetrics{}, fmt.Errorf("tapesys: request %d did not complete (%d groups outstanding)",
			r.ID, s.latch.Remaining())
	}

	// §6 metrics: response from the last-finishing drive. A timed-out
	// request reports Response = RequestTimeout (the client gave up at the
	// deadline) even though the mechanical work ran to completion and the
	// clock advanced with it.
	end := s.eng.Now()
	met.Response = end - t0
	if end > s.deadline {
		met.TimedOut = true
		met.Response = s.opts.RequestTimeout
		s.emitAt(trace.Event{Kind: trace.KindRequestTimedOut, Lib: -1, Drive: -1, Tape: -1,
			Req: s.curReq, Bytes: met.BytesServed, Dur: s.opts.RequestTimeout}, s.deadline)
	}
	s.emitAt(trace.Event{Kind: trace.KindComplete, Lib: -1, Drive: -1, Tape: -1,
		Req: s.curReq, Bytes: met.Bytes, Dur: met.Response}, end)
	var last *driveAcct
	for i := range s.acct {
		a := &s.acct[i]
		if !a.used {
			continue
		}
		met.SumSeek += a.seek
		met.SumTransfer += a.xfer
		if a.moved > 0 {
			met.DrivesUsed++
		}
		if last == nil || a.finish > last.finish {
			last = a
		}
	}
	if last != nil {
		met.Seek = last.seek
		met.Transfer = last.xfer
		met.Switch = met.Response - met.Seek - met.Transfer
		if met.Switch < 0 {
			met.Switch = 0
		}
	}
	met.RobotWait = s.robotWaitTotal() - robotWait0
	s.totalBytes += met.Bytes
	return s.curMet, nil
}

// SubmitStream submits a stream of requests in order: next supplies
// requests and returns nil to end the stream; fn, if non-nil, observes
// each request's metrics in submission order and may stop the stream by
// returning an error. On error (from a request or from fn) the stream
// stops; the system remains usable.
//
// Deprecated: call Submit in a loop. SubmitStream is that loop; it
// remains only until its last caller, the repository benchmark
// (perfbench), stops calling it.
func (s *System) SubmitStream(next func() *model.Request, fn func(RequestMetrics) error) error {
	for r := next(); r != nil; r = next() {
		m, err := s.Submit(r)
		if err != nil {
			return err
		}
		if fn != nil {
			if err := fn(m); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close releases nothing: a System owns no goroutines or other background
// resources. It always returns nil, may be called any number of times,
// and leaves the system fully usable.
//
// Deprecated: a System needs no Close. The method remains only until its
// last caller, the repository benchmark (perfbench), stops calling it.
func (s *System) Close() error { return nil }

// mountedProb returns the accumulated probability of the drive's mounted
// tape (−1 for an empty drive, so empty drives are preferred victims).
func (s *System) mountedProb(d *drive) float64 {
	if d.mounted < 0 {
		return -1
	}
	return s.prob[tape.Key{Library: d.lib, Index: d.mounted}]
}

func (s *System) robotWaitTotal() float64 {
	total := 0.0
	for _, l := range s.libs {
		total += l.robot.Stats().WaitTotal
	}
	return total
}

// Now returns the current simulated time.
func (s *System) Now() float64 { return s.eng.Now() }

// TotalSwitches returns the switch count over the system's lifetime.
func (s *System) TotalSwitches() int { return s.totalSwitches }

// MountedTapes returns, per library, the sorted tape indices currently
// mounted (diagnostic).
func (s *System) MountedTapes() [][]int {
	out := make([][]int, len(s.libs))
	for i, l := range s.libs {
		for _, d := range l.drives {
			if d.mounted >= 0 {
				out[i] = append(out[i], d.mounted)
			}
		}
		slices.Sort(out[i])
	}
	return out
}
