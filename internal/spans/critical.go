package spans

// Critical-path analysis: walk backward from the operation that finished
// last — the one that bounded the request's response time — through
// same-drive continuation (an operation starting the instant its
// predecessor ended) and explicit retry edges, closing with the dispatch
// wait back to the submit instant. Forward in time, the resulting step
// chain covers [Submit, End] exactly, so the per-phase attribution sums
// to the request's mechanical span.

import "paralleltape/internal/trace"

// Phase labels one slice of a request's critical-path time.
type Phase int

// The critical-path phases, in the fixed presentation order used by
// every breakdown table.
const (
	// PhaseQueue is time an operation chain waited to be dispatched
	// (all of the library's drives busy, or initial dispatch).
	PhaseQueue Phase = iota
	// PhaseRewind is rewind+unload time of outgoing cartridges.
	PhaseRewind
	// PhaseRobotWait is time spent queued for a library's robot arm.
	PhaseRobotWait
	// PhaseRobotOutage is robot-arm failure time ridden out while holding
	// the arm (degraded mode).
	PhaseRobotOutage
	// PhaseRobotMove is robot stow+fetch motion time.
	PhaseRobotMove
	// PhaseLoad is cartridge load+thread time.
	PhaseLoad
	// PhaseSeek is tape seek time within serves.
	PhaseSeek
	// PhaseTransfer is data transfer time within serves.
	PhaseTransfer
	// PhaseRetryWait is backoff time between an interrupted operation and
	// its re-dispatch (degraded mode).
	PhaseRetryWait
	// PhaseStall is time a request sat waiting on a drive repair with no
	// alive drive to dispatch to (degraded mode).
	PhaseStall
	// NumPhases is the number of phases (array sizing).
	NumPhases
)

// phaseNames indexes Phase presentation names.
var phaseNames = [NumPhases]string{
	"queue", "rewind", "robot-wait", "robot-outage", "robot-move",
	"load", "seek", "transfer", "retry-wait", "repair-stall",
}

// String returns the phase's presentation name.
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// AllPhases returns every phase in presentation order.
func AllPhases() []Phase {
	out := make([]Phase, NumPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Step is one link of a request's critical path: an operation, or a gap
// (queue wait, retry backoff, repair stall) between operations.
type Step struct {
	// Op is the operation this step runs, nil for a gap step.
	Op *Op
	// Phase is the gap's phase when Op is nil (queue, retry-wait, or
	// repair-stall); unset for operation steps.
	Phase Phase
	// Start is the step's start time.
	Start float64
	// End is the step's end time.
	End float64
	// Parts attributes the step's duration to phases; operation steps
	// split across their mechanical phases, gap steps put everything into
	// Phase.
	Parts [NumPhases]float64
}

// parts decomposes an operation's elapsed time into phases. Serves split
// into seek then transfer; switches into rewind, robot wait (the
// residual after the known stage durations), outage, move, and load.
// The entries sum exactly to End − Start, so truncated operations
// (failures, media errors) attribute only the time they actually consumed.
func (op *Op) parts() [NumPhases]float64 {
	var p [NumPhases]float64
	el := op.End - op.Start
	if el <= 0 {
		return p
	}
	if op.Serve {
		seek := op.Seek
		if seek > el {
			seek = el
		}
		p[PhaseSeek] = seek
		p[PhaseTransfer] = el - seek
		return p
	}
	rewind := op.Rewind
	if rewind > el {
		rewind = el
	}
	p[PhaseRewind] = rewind
	p[PhaseRobotOutage] = op.RobotOutage
	p[PhaseRobotMove] = op.RobotMove
	p[PhaseLoad] = op.Load
	wait := el - rewind - op.RobotOutage - op.RobotMove - op.Load
	if wait < 0 {
		// Stages are recorded only when fully consumed, so a negative
		// residual is float rounding (−1e-14 scale), not a real phase —
		// clamp it rather than render "-0.00s" blame.
		wait = 0
	}
	p[PhaseRobotWait] = wait
	return p
}

// computeCritical builds the request's critical path and accumulates its
// per-phase attribution. Deterministic by construction: every choice
// (final operation, predecessor, retry link) is resolved on timestamps,
// indices, and span IDs.
func (r *Request) computeCritical() {
	r.Critical = r.Critical[:0]
	if len(r.Ops) == 0 {
		if r.End > r.Submit {
			r.gapStep(PhaseQueue, r.Submit, r.End)
		}
		r.accumulate()
		return
	}
	// The chain's head: the operation that ended last. Ops are sorted, so
	// taking the strictly-greatest End keeps ties deterministic.
	final := r.Ops[0]
	for _, op := range r.Ops[1:] {
		if op.End > final.End {
			final = op
		}
	}
	var rev []Step
	// Trailing gap: the request can outlive its last operation when an
	// interrupted group's retry backoff expired into an abandoned queue.
	if r.End > final.End {
		rev = append(rev, gap(PhaseRetryWait, final.End, r.End))
	}
	seen := make(map[*Op]bool)
	cur := final
	for cur != nil && !seen[cur] {
		seen[cur] = true
		rev = append(rev, opStep(cur))
		if cur.RetryOf != nil && cur.RetryOf.End <= cur.Start {
			if cur.Start > cur.RetryOf.End {
				rev = append(rev, gap(PhaseRetryWait, cur.RetryOf.End, cur.Start))
			}
			cur = cur.RetryOf
			continue
		}
		if pred := r.predecessor(cur); pred != nil {
			cur = pred
			continue
		}
		if cur.Start > r.Submit {
			ph := PhaseQueue
			if r.repairedIn(r.Submit, cur.Start) {
				ph = PhaseStall
			}
			rev = append(rev, gap(ph, r.Submit, cur.Start))
		}
		break
	}
	for i := len(rev) - 1; i >= 0; i-- {
		r.Critical = append(r.Critical, rev[i])
	}
	r.accumulate()
}

// predecessor finds the operation whose end is exactly cur's start on the
// same drive — the continuation chain the simulator schedules at a single
// instant (serve → switch → serve). Latest start wins ties.
func (r *Request) predecessor(cur *Op) *Op {
	var best *Op
	for _, op := range r.Ops {
		if op == cur || op.Lib != cur.Lib || op.Drive != cur.Drive {
			continue
		}
		if op.End != cur.Start || op.Start > cur.Start {
			continue
		}
		if best == nil || op.Start > best.Start || (op.Start == best.Start && op.Span > best.Span) {
			best = op
		}
	}
	return best
}

// repairedIn reports whether a mid-request drive repair landed in the
// half-open interval (from, to] — the signature of a repair stall.
func (r *Request) repairedIn(from, to float64) bool {
	for _, ev := range r.Incidents {
		if ev.Kind == trace.KindDriveRepaired && ev.T > from && ev.T <= to {
			return true
		}
	}
	return false
}

// gap builds a gap step attributed entirely to one phase.
func gap(ph Phase, start, end float64) Step {
	st := Step{Phase: ph, Start: start, End: end}
	st.Parts[ph] = end - start
	return st
}

// gapStep appends a gap step to the critical path.
func (r *Request) gapStep(ph Phase, start, end float64) {
	r.Critical = append(r.Critical, gap(ph, start, end))
}

// opStep builds an operation step with its phase decomposition.
func opStep(op *Op) Step {
	return Step{Op: op, Start: op.Start, End: op.End, Parts: op.parts()}
}

// accumulate folds the critical path's step parts into PhaseTotals.
func (r *Request) accumulate() {
	var tot [NumPhases]float64
	for _, st := range r.Critical {
		for i, v := range st.Parts {
			tot[i] += v
		}
	}
	r.PhaseTotals = tot
}
