package sim

import (
	"math/rand"
	"testing"
)

// This file pins the scheduler-determinism contract structurally: (at, seq)
// is a total order, so ANY correct min-queue yields the identical pop
// sequence regardless of internal shape. The reference implementation below
// is a verbatim copy of the 4-ary heap that was once the engine's whole
// queue (event struct included), and the property test drives both through
// randomized schedules — equal-time bursts, near/far mixes, zero-delay
// storms, mid-stream reuse after reset — checking every pop agrees.

// heapEvent is the heap-only engine's event record, copied unchanged.
type heapEvent struct {
	at  Time
	seq uint64 // tie-break so equal-time events fire in schedule order
	fn  func()
}

// before reports whether e fires before o under the (at, seq) contract.
func (e *heapEvent) before(o *heapEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// refQueue is the heap-only engine's concrete-typed 4-ary min-heap,
// copied unchanged (modulo renames).
type refQueue struct {
	ev []heapEvent
}

func (q *refQueue) len() int { return len(q.ev) }

// push inserts an event, growing only when the backing array is full.
func (q *refQueue) push(e heapEvent) {
	q.ev = append(q.ev, e)
	// Sift up.
	s := q.ev
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !s[i].before(&s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the minimum event.
func (q *refQueue) pop() heapEvent {
	s := q.ev
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = heapEvent{} // release the fn so fired callbacks are collectible
	s = s[:n]
	q.ev = s
	// Sift down.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if s[j].before(&s[best]) {
				best = j
			}
		}
		if !s[best].before(&s[i]) {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return top
}

// reset empties the queue, keeping the backing array for reuse.
func (q *refQueue) reset() {
	s := q.ev
	for i := range s {
		s[i] = heapEvent{}
	}
	q.ev = s[:0]
}

// delayProfile generates the next scheduling delay for one workload shape.
type delayProfile struct {
	name string
	next func(r *rand.Rand) float64
}

var delayProfiles = []delayProfile{
	// Tight near-future traffic: the drain-between-requests steady state.
	{"near", func(r *rand.Rand) float64 { return r.Float64() * 10 }},
	// Near/far mix: most events soon, a long tail far out, so most pushes
	// binary-search their slot instead of appending.
	{"skewed", func(r *rand.Rand) float64 {
		if r.Intn(4) == 0 {
			return 1000 + r.Float64()*100000
		}
		return r.Float64()
	}},
	// Zero-delay storms: Immediately-style dispatch, maximal (at, seq)
	// tie-breaking through the cursor fast path.
	{"immediate", func(r *rand.Rand) float64 {
		if r.Intn(3) == 0 {
			return r.Float64() * 5
		}
		return 0
	}},
	// Coarse quantized times: many exactly-equal instants, so inserts land
	// inside runs of equal times and order them by seq alone.
	{"quantized", func(r *rand.Rand) float64 { return float64(r.Intn(8)) * 2.5 }},
}

// TestQueueMatchesHeapOrder drives the sorted queue and the old 4-ary
// heap through identical randomized push/pop schedules and requires
// bit-identical pop order, including mid-stream reuse after reset. Every
// profile holds hundreds of pending events, and the near, skewed and
// quantized profiles each fill the array with its first half consumed at
// least once, so push slides the pending events to the front mid-run.
func TestQueueMatchesHeapOrder(t *testing.T) {
	for _, prof := range delayProfiles {
		t.Run(prof.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(20060815))
			var q eventQueue
			var ref refQueue
			var seq uint64
			now := Time(0) // last popped instant; pushes are never in the past
			push := func(at Time) {
				seq++
				q.push(event{at: at, key: seq << 8, op: opFunc(func() {})})
				ref.push(heapEvent{at: at, seq: seq})
			}
			popBoth := func() {
				want := ref.pop()
				got := q.pop()
				if got.at != want.at || got.key>>8 != want.seq {
					t.Fatalf("pop mismatch: queue (at=%v seq=%d), heap (at=%v seq=%d)",
						got.at, got.key>>8, want.at, want.seq)
				}
				now = want.at
			}
			for round := 0; round < 4; round++ {
				for i := 0; i < 3000; i++ {
					switch {
					case ref.len() == 0 || r.Intn(3) != 0:
						// Bursts share one instant to stress seq tie-breaks.
						at := now + prof.next(r)
						for n := r.Intn(4); n >= 0; n-- {
							push(at)
						}
					default:
						popBoth()
					}
					if q.len() != ref.len() {
						t.Fatalf("size mismatch: queue %d, heap %d", q.len(), ref.len())
					}
				}
				// Drain half, then keep scheduling: pops interleaved with
				// pushes move the near cursor mid-structure.
				for ref.len() > 1500 {
					popBoth()
				}
				if round == 1 {
					// Mid-stream reuse: both queues reset with events still
					// pending, as Engine.Reset does between replays.
					q.reset()
					ref.reset()
					now = 0
				}
			}
			for ref.len() > 0 {
				popBoth()
			}
			if q.len() != 0 {
				t.Fatal("queue not empty after drain")
			}
		})
	}
}
