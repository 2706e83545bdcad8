package sim

// The event queue is one array sorted by (at, seq) and consumed by a
// cursor. The simulator serves one request at a time, so its pending set
// is bounded by the devices (drives, robots, fault and timeout timers); a
// full-scale exhibit sweep never holds more than 40 events. A push appends
// to the sorted tail (monotone schedules, same-instant bursts) or
// binary-searches its slot, and a pop advances the cursor.
//
// Determinism is structural, not incidental: seq is unique, so (at, seq) is
// a total order and any correct min-queue yields the identical pop sequence
// (locked by TestQueueMatchesHeapOrder).

// event is one pending continuation. The engine's sequence number and the
// continuation's stage tag share one word — key = seq<<8 | tag — which
// keeps the struct at 32 bytes (one pointer pair, one cache line for two
// events) and makes the (at, seq) comparison a single integer compare: seq
// is monotone, so ordering by key is ordering by seq.
type event struct {
	at  Time
	key uint64 // seq<<8 | tag; seq is the tie-break for equal times
	op  Op
}

// tag returns the continuation stage tag the event was scheduled under.
func (e *event) tag() uint8 { return uint8(e.key) }

// before reports whether e fires before o under the (at, seq) contract.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.key < o.key
}

// eventQueue is the engine's pending-event container: ev is sorted
// ascending by (at, seq) and consumed at head, so the queued events are
// ev[head:]. The zero value is ready to use; the backing array is kept
// across pops and reset, so steady-state operation at or below the
// high-water mark allocates nothing.
type eventQueue struct {
	ev   []event
	head int
}

// len returns the number of queued events.
func (q *eventQueue) len() int { return len(q.ev) - q.head }

// push files an event in (at, seq) order.
func (q *eventQueue) push(e event) {
	// A standing backlog never lets the cursor catch up with the tail, so
	// before append would grow a full array whose first half is consumed,
	// slide the pending events to the front and zero the slots they left.
	if n := len(q.ev); n == cap(q.ev) && q.head > 0 && 2*q.head >= n {
		m := copy(q.ev, q.ev[q.head:])
		clear(q.ev[m:])
		q.ev = q.ev[:m]
		q.head = 0
	}
	// The tail append covers monotone schedules and same-instant bursts (a
	// new event always has the largest seq); everything else
	// binary-searches ev[head:] (insert).
	b := q.ev
	if n := len(b); n == q.head || b[n-1].before(&e) {
		q.ev = append(b, e)
	} else {
		q.insert(e)
	}
}

// insert is push's out-of-order path: binary-search the sorted array,
// then shift whichever side of the insertion point is shorter. Pops leave
// zeroed slots behind the cursor, so when the head side is shorter — in
// particular for an ImmediatelyOp event, which lands exactly at the cursor
// — the head half slides one slot left into reclaimed space: the
// grant-dispatch pattern (schedule at now, fire, repeat) costs O(1) instead
// of shifting the whole pending tail on every push.
func (q *eventQueue) insert(e event) {
	b := q.ev
	lo, hi := q.head, len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].before(&e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if h := q.head; h > 0 && lo-h <= len(b)-lo {
		copy(b[h-1:lo-1], b[h:lo])
		b[lo-1] = e
		q.head = h - 1
		return
	}
	b = append(b, event{})
	copy(b[lo+1:], b[lo:])
	b[lo] = e
	q.ev = b
}

// pop removes and returns the minimum event under (at, seq). The queue
// must be non-empty. The vacated slot is zeroed so the popped continuation
// (and everything it references) becomes collectible immediately.
func (q *eventQueue) pop() event {
	e := q.ev[q.head]
	q.ev[q.head] = event{}
	q.head++
	if q.head == len(q.ev) {
		q.ev = q.ev[:0] // slots were zeroed as they were consumed
		q.head = 0
	}
	return e
}

// reset empties the queue, zeroing every occupied slot so pending
// continuations are collectible, while keeping the backing array for
// reuse.
func (q *eventQueue) reset() {
	clear(q.ev)
	q.ev = q.ev[:0]
	q.head = 0
}
