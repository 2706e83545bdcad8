package tapesys

// recovery.go is the degraded-mode half of the simulator: how in-flight
// operation chains react when the fault injector (internal/faults, wired
// through Options.Faults) takes a drive, robot, or cartridge out from
// under them, and how interrupted work is re-dispatched onto surviving
// drives. The full contract — what fails, what retries, what is abandoned,
// and why every run stays byte-deterministic per seed — is documented in
// docs/RESILIENCE.md.
//
// Design rules the code below follows:
//
//   - Fault outcomes are decided from the injector's deterministic
//     per-device timelines at the instants the simulation already visits
//     (serve schedule time, switch stage boundaries, robot grant time,
//     request submission). No speculative failure or repair events are
//     pushed onto the engine: a repair wakeup is scheduled only when a
//     library would otherwise deadlock (queued groups, zero alive
//     drives), so the event is always required for liveness and always
//     precedes the request's completion.
//   - Everything here is behind an `inj != nil` (or `d.failed`) guard on
//     the healthy path, and only code that runs when a fault actually
//     fires may allocate (growing the retry pool and queues).

import (
	"math"

	"paralleltape/internal/catalog"
	"paralleltape/internal/trace"
)

// retryEntry is one fault-interrupted tape group waiting in a library's
// retry queue for an idle surviving drive.
type retryEntry struct {
	g        catalog.TapeGroup
	attempts int
}

// retryOp is the pooled backoff continuation of one retried group: when the
// backoff elapses it requeues the group and pumps the library. It is a
// typed event (sim.Op), so arming a retry captures no closure; the pool
// (System.retryPool) makes even a fault storm allocation-free in steady
// state.
type retryOp struct {
	s   *System
	lib int
	e   retryEntry
}

// Run implements sim.Op: the backoff elapsed — requeue and pump.
func (op *retryOp) Run(uint8) {
	s, lib, e := op.s, op.lib, op.e
	op.e = retryEntry{}
	s.retryPool = append(s.retryPool, op)
	s.retryQ[lib] = append(s.retryQ[lib], e)
	s.pump(lib)
}

func (s *System) getRetryOp() *retryOp {
	if n := len(s.retryPool); n > 0 {
		op := s.retryPool[n-1]
		s.retryPool[n-1] = nil
		s.retryPool = s.retryPool[:n-1]
		return op
	}
	return &retryOp{s: s}
}

// repairWake is a library's embedded repair-wakeup continuation, armed by
// stall when queued work would otherwise deadlock on a library with zero
// alive drives. Embedding it in the library makes the one recovery event
// the simulator may schedule a typed, allocation-free continuation.
type repairWake struct {
	s *System
	l *library
}

// Run implements sim.Op: the earliest scheduled repair instant arrived —
// return every due drive to service and pump the library.
func (w *repairWake) Run(uint8) {
	s, l := w.s, w.l
	s.repairArmed[l.idx] = false
	now := s.eng.Now()
	for _, d := range l.drives {
		if d.failed && !d.manual && d.repairAt <= now {
			s.repairDrive(d)
		}
	}
	s.pump(l.idx)
}

// armServeFaults decides, at schedule time, whether the injector cuts the
// service short, returning the (possibly truncated) span to schedule. A
// media-error draw is consumed for every read so the media stream stays
// aligned regardless of drive state; an earlier drive failure overrides
// the media outcome.
func (s *System) armServeFaults(op *serveOp, span float64) float64 {
	now := s.eng.Now()
	cut := span
	if failed, frac := s.inj.MediaRead(op.d.lib, op.g.Tape.Index); failed {
		op.mode = serveMedia
		cut = span * frac
	}
	if tf := s.inj.NextDriveFailure(op.d.gidx, now); tf-now < cut {
		op.mode = serveDriveFail
		cut = tf - now
		if cut < 0 {
			cut = 0
		}
	}
	return cut
}

// interrupted is the fault branch of serveOp.finish: the service ended
// early on a media error or a drive failure (injected, or a manual
// FailDrive while the op was in flight). The time actually spent still
// counts as busy time; the payload does not count as served.
func (op *serveOp) interrupted() {
	s, d, g := op.s, op.d, op.g
	mode, start, attempts, span := op.mode, op.start, op.attempts, op.span
	s.putServeOp(op)
	now := s.eng.Now()
	elapsed := now - start
	d.busy = false
	d.busySeconds += elapsed
	if mode == serveMedia && !d.failed {
		// Permanent media error: the cartridge is bad, so retrying on
		// another drive cannot help — the group is lost.
		s.curMet.MediaErrors++
		s.emit(trace.Event{Kind: trace.KindMediaError, Lib: int32(d.lib), Drive: int32(d.idx),
			Tape: int32(g.Tape.Index), Req: s.curReq, Span: span, Bytes: g.Bytes, Dur: elapsed})
		s.failGroup(g)
		s.afterService(d)
		return
	}
	if !d.failed {
		_, until := s.inj.DriveDown(d.gidx, now)
		s.observeDriveFailure(d, until, g.Tape.Index, s.curReq, span)
	} else if d.mounted >= 0 {
		s.evictMounted(d)
	}
	s.retryGroup(g, attempts, span)
}

// abortIfDown is the switch-stage boundary check: if the switching drive
// has failed (injected window reached, or manual FailDrive), the switch
// chain stops here, the partial switch time is charged, and the group is
// re-dispatched. Returns true when the chain was aborted.
func (op *switchOp) abortIfDown() bool {
	s, d := op.s, op.d
	if !d.failed {
		if s.inj == nil {
			return false
		}
		down, until := s.inj.DriveDown(d.gidx, s.eng.Now())
		if !down {
			return false
		}
		s.observeDriveFailure(d, until, op.g.Tape.Index, s.curReq, op.span)
	} else if d.mounted >= 0 {
		s.evictMounted(d)
	}
	g, attempts, span := op.g, op.attempts, op.span
	d.busy = false
	d.switchSeconds += s.eng.Now() - op.switchBegin
	if op.grant != nil {
		// Defensive: no stage aborts while holding the robot today
		// (afterMove releases before its check), but a future stage must
		// not leak the arm.
		op.grant.Release()
		op.grant = nil
	}
	s.putSwitchOp(op)
	s.retryGroup(g, attempts, span)
	return true
}

// observeDriveFailure transitions a drive to the failed state the instant
// the simulation first observes its (injected) failure window: the
// mounted cartridge is returned to its cell, a pinned drive loses its pin
// (its dedicated cartridge is evicted with it), and repairAt records when
// sweepFaults or a repair wakeup may return it to service. span is the
// trace span of the operation the failure interrupted (0 when the failure
// was observed between operations).
func (s *System) observeDriveFailure(d *drive, repairAt float64, tapeCtx int, req int64, span int64) {
	d.failed = true
	d.manual = false
	d.pinned = false
	d.repairAt = repairAt
	if d.mounted >= 0 {
		s.evictMounted(d)
	}
	s.emit(trace.Event{Kind: trace.KindDriveFailed, Lib: int32(d.lib), Drive: int32(d.idx),
		Tape: int32(tapeCtx), Req: req, Span: span, Dur: repairAt - s.eng.Now()})
}

// evictMounted returns a drive's mounted cartridge to its library cell
// (modeling the repair crew clearing the transport), making the tape
// mountable by other drives.
func (s *System) evictMounted(d *drive) {
	d.mounted = -1
	d.headPos = 0
}

// failGroup abandons one tape group of the current request: its payload is
// accounted as failed and its latch slot opens so the request can still
// complete (partial-result accounting, docs/RESILIENCE.md).
func (s *System) failGroup(g catalog.TapeGroup) {
	s.curMet.FailedGroups++
	s.curMet.FailedBytes += g.Bytes
	s.latch.Done()
}

// retryGroup re-dispatches a fault-interrupted group: after the configured
// backoff it joins the library's retry queue and an idle surviving drive
// picks it up. Past the retry bound the group is abandoned. span is the
// trace span of the failed operation, so the retry edge links the
// abandoned chain to its successor in span reconstruction.
func (s *System) retryGroup(g catalog.TapeGroup, attempts int, span int64) {
	if attempts+1 > maxRetries {
		s.failGroup(g)
		// The interrupted drive no longer pulls queued work and the
		// library's other drives may all be down: pump hands the queue to
		// an idle drive or, through stall, arms the repair wakeup — as
		// retryOp does after a backoff on the path below.
		s.pump(g.Tape.Library)
		return
	}
	s.curMet.Retries++
	backoff := s.opts.RetryBackoff
	s.emit(trace.Event{Kind: trace.KindOpRetried, Lib: int32(g.Tape.Library), Drive: -1,
		Tape: int32(g.Tape.Index), Req: s.curReq, Span: span, Bytes: g.Bytes, Dur: backoff, Queue: int32(attempts + 1)})
	op := s.getRetryOp()
	op.lib = g.Tape.Library
	op.e = retryEntry{g: g, attempts: attempts + 1}
	s.eng.ScheduleOp(backoff, op, 0)
}

// pump dispatches a library's queued groups onto idle alive drives. If the
// library has queued work but no alive drive at all, it stalls (waiting on
// a scheduled repair, or abandoning the work if none is coming); if all
// alive drives are busy it simply returns — each will pull from the queue
// through afterService when it finishes.
func (s *System) pump(lib int) {
	for s.hasQueued(lib) {
		var idle *drive
		alive := false
		for _, d := range s.libs[lib].drives {
			if d.failed || d.pinned {
				continue
			}
			alive = true
			if !d.busy {
				idle = d
				break
			}
		}
		if !alive {
			s.stall(lib)
			return
		}
		if idle == nil {
			return
		}
		g, attempts, _ := s.takeQueued(lib)
		s.startSwitch(idle, g, attempts)
	}
}

// stall handles a library with queued groups and zero alive drives: if any
// failed drive has a scheduled repair, one wakeup event is armed at the
// earliest repair instant (the guard keeps it single); otherwise no repair
// will ever come — manual failures are permanent — and everything queued
// is abandoned so the request can complete.
func (s *System) stall(lib int) {
	earliest := math.Inf(1)
	for _, d := range s.libs[lib].drives {
		if d.failed && !d.manual && d.repairAt < earliest {
			earliest = d.repairAt
		}
	}
	if math.IsInf(earliest, 1) {
		for {
			g, _, ok := s.takeQueued(lib)
			if !ok {
				return
			}
			s.failGroup(g)
		}
	}
	if s.repairArmed[lib] {
		return
	}
	s.repairArmed[lib] = true
	delay := earliest - s.eng.Now()
	if delay < 0 {
		delay = 0
	}
	s.eng.ScheduleOp(delay, &s.libs[lib].repair, 0)
}

// repairDrive returns a failed drive to service mid-request.
func (s *System) repairDrive(d *drive) {
	d.failed = false
	d.repairAt = 0
	s.emit(trace.Event{Kind: trace.KindDriveRepaired, Lib: int32(d.lib), Drive: int32(d.idx),
		Tape: -1, Req: s.curReq})
}

// sweepFaults reconciles drive state with the injector's timelines at a
// request boundary: overdue injected failures are repaired, drives inside
// a failure window are taken down (their cartridges returned to cells)
// before the request's mounted-tape lookup runs. Manual FailDrive outages
// are never auto-repaired. Robots need no sweep — outages are observed at
// grant time.
func (s *System) sweepFaults(t0 float64) {
	for _, l := range s.libs {
		for _, d := range l.drives {
			if d.manual {
				continue
			}
			if d.failed {
				if d.repairAt > t0 {
					continue
				}
				d.failed = false
				d.repairAt = 0
				s.emitAt(trace.Event{Kind: trace.KindDriveRepaired, Lib: int32(d.lib), Drive: int32(d.idx),
					Tape: -1, Req: -1}, t0)
			}
			if down, until := s.inj.DriveDown(d.gidx, t0); down {
				d.failed = true
				d.pinned = false
				d.repairAt = until
				if d.mounted >= 0 {
					d.mounted = -1
					d.headPos = 0
				}
				s.emitAt(trace.Event{Kind: trace.KindDriveFailed, Lib: int32(d.lib), Drive: int32(d.idx),
					Tape: -1, Req: -1, Dur: until - t0}, t0)
			}
		}
	}
}

// hasQueued reports whether a library has retried or pending groups
// waiting for a drive.
func (s *System) hasQueued(lib int) bool {
	return s.retryHead[lib] < len(s.retryQ[lib]) || s.pendHead[lib] < len(s.pending[lib])
}

// takeQueued pops the next group for a library — retried groups first
// (they have already waited out a backoff), then the request's pending
// queue — along with its prior attempt count.
func (s *System) takeQueued(lib int) (catalog.TapeGroup, int, bool) {
	if s.retryHead[lib] < len(s.retryQ[lib]) {
		e := s.retryQ[lib][s.retryHead[lib]]
		s.retryHead[lib]++
		return e.g, e.attempts, true
	}
	g, ok := s.takePending(lib)
	return g, 0, ok
}
