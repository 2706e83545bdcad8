package tapesys

import (
	"fmt"
	"math"
	"slices"

	"paralleltape/internal/catalog"
	"paralleltape/internal/faults"
)

// PendingOrder selects how a library's queue of offline requested tapes is
// ordered before switch drives pull from it.
type PendingOrder int

const (
	// LargestFirst serves the tape with the most requested bytes first
	// (LPT — starts the longest transfers earliest, minimizing makespan;
	// the default and the behavior assumed throughout the paper
	// reproduction).
	LargestFirst PendingOrder = iota
	// SmallestFirst serves the tape with the fewest requested bytes first
	// (SPT — drains the queue fastest but can strand the big transfer at
	// the end).
	SmallestFirst
	// SlotOrder serves tapes by their library slot index (a FIFO-like
	// policy with no size awareness).
	SlotOrder
)

func (p PendingOrder) String() string {
	switch p {
	case LargestFirst:
		return "largest-first"
	case SmallestFirst:
		return "smallest-first"
	case SlotOrder:
		return "slot-order"
	default:
		return fmt.Sprintf("PendingOrder(%d)", int(p))
	}
}

// VictimPolicy selects which switchable drive gives up its tape when an
// offline tape must be mounted.
type VictimPolicy int

const (
	// LeastPopular evicts the mounted tape with the least accumulated
	// probability — the policy [11] proves minimizes switch count and the
	// paper's default.
	LeastPopular VictimPolicy = iota
	// MostPopular evicts the hottest mounted tape first (the adversarial
	// policy, for ablation).
	MostPopular
	// DriveOrder ignores popularity and evicts by drive index.
	DriveOrder
)

func (p VictimPolicy) String() string {
	switch p {
	case LeastPopular:
		return "least-popular"
	case MostPopular:
		return "most-popular"
	case DriveOrder:
		return "drive-order"
	default:
		return fmt.Sprintf("VictimPolicy(%d)", int(p))
	}
}

// maxRetries bounds how many times one tape group's operation is
// re-dispatched after a fault interrupts it; past the bound the group is
// abandoned and accounted in FailedGroups/FailedBytes.
const maxRetries = 3

// Options tunes simulator scheduling and degraded-mode behavior. The zero
// value is the paper's behavior.
type Options struct {
	// Pending selects how each library's queue of offline requested
	// tapes is ordered before switch drives pull from it.
	Pending PendingOrder
	// Victim selects which switchable drive gives up its tape when an
	// offline tape must be mounted.
	Victim VictimPolicy

	// Shards is accepted and ignored: every System runs on one engine.
	// A negative value is still rejected.
	//
	// Deprecated: leave it unset. The field remains only until its last
	// caller, the repository benchmark (perfbench), stops setting it.
	Shards int

	// Faults attaches a fault-injection profile (stochastic MTBF/repair
	// timelines, scripted outages, media errors — see internal/faults and
	// docs/RESILIENCE.md). Nil, or a profile that enables nothing, runs
	// failure-free with zero overhead on the hot path.
	Faults *faults.Profile
	// RequestTimeout caps each request's client-observed response time in
	// simulated seconds: a request still running at submission+timeout is
	// reported TimedOut with Response = RequestTimeout and BytesServed
	// counting only the payload delivered by the deadline (in-flight
	// mechanical work still completes and advances the clock). 0 disables
	// timeouts.
	RequestTimeout float64
	// RetryBackoff delays each re-dispatch of an interrupted group by
	// this many simulated seconds (0 retries immediately).
	RetryBackoff float64
}

// Validate checks option sanity.
func (o Options) Validate() error {
	switch o.Pending {
	case LargestFirst, SmallestFirst, SlotOrder:
	default:
		return fmt.Errorf("tapesys: unknown pending order %d", int(o.Pending))
	}
	switch o.Victim {
	case LeastPopular, MostPopular, DriveOrder:
	default:
		return fmt.Errorf("tapesys: unknown victim policy %d", int(o.Victim))
	}
	if o.Shards < 0 {
		return fmt.Errorf("tapesys: negative shard count %d", o.Shards)
	}
	if o.RequestTimeout < 0 || math.IsNaN(o.RequestTimeout) {
		return fmt.Errorf("tapesys: request timeout must be >= 0, got %v", o.RequestTimeout)
	}
	if o.RetryBackoff < 0 || math.IsNaN(o.RetryBackoff) {
		return fmt.Errorf("tapesys: retry backoff must be >= 0, got %v", o.RetryBackoff)
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// sortPending orders one library's offline tape groups per the policy.
// Every comparator is a total order (byte ties break on the unique slot
// index), so the unstable slices.SortFunc — which, unlike sort.Slice,
// allocates nothing — yields the same deterministic order.
func sortPending(p []catalog.TapeGroup, order PendingOrder) {
	switch order {
	case SmallestFirst:
		slices.SortFunc(p, func(a, b catalog.TapeGroup) int {
			if a.Bytes != b.Bytes {
				if a.Bytes < b.Bytes {
					return -1
				}
				return 1
			}
			return a.Tape.Index - b.Tape.Index
		})
	case SlotOrder:
		slices.SortFunc(p, func(a, b catalog.TapeGroup) int {
			return a.Tape.Index - b.Tape.Index
		})
	default: // LargestFirst
		slices.SortFunc(p, func(a, b catalog.TapeGroup) int {
			if a.Bytes != b.Bytes {
				if a.Bytes > b.Bytes {
					return -1
				}
				return 1
			}
			return a.Tape.Index - b.Tape.Index
		})
	}
}

// victimLess ranks eligible drives: true means a should switch before b.
func (s *System) victimLess(a, b *drive) bool {
	switch s.opts.Victim {
	case MostPopular:
		pa, pb := s.mountedProb(a), s.mountedProb(b)
		// Empty drives (prob −1) still go first: using them costs nothing.
		aEmpty, bEmpty := a.mounted < 0, b.mounted < 0
		if aEmpty != bEmpty {
			return aEmpty
		}
		if pa != pb {
			return pa > pb
		}
		return a.idx < b.idx
	case DriveOrder:
		return a.idx < b.idx
	default: // LeastPopular
		pa, pb := s.mountedProb(a), s.mountedProb(b)
		if pa != pb {
			return pa < pb
		}
		return a.idx < b.idx
	}
}
