package sim

// The event queue has two tiers: a sorted near tier consumed by a cursor,
// and a 4-ary min-heap for overflow. The simulator serves one request at a
// time, so its pending set is bounded by the devices (drives, robots, fault
// and timeout timers); a full-scale exhibit sweep never holds more than 40
// events, so in practice every event lives in the near tier. There a push
// appends to the sorted tail (monotone schedules, same-instant bursts) or
// binary-searches its slot, and a pop advances the cursor. Only a
// population past nearCap spills its far half to the heap.
//
// Determinism is structural, not incidental: seq is unique, so (at, seq) is
// a total order and any correct min-queue yields the identical pop sequence
// (locked by TestQueueMatchesHeapOrder). While the heap holds events, the
// tiers partition future time at lim,
//
//	[ .. lim ) → near tier   [ lim .. ) → heap
//
// so pop takes the near cursor whenever the near tier has events and the
// heap root otherwise, without comparing the two.

// nearCap bounds the sorted near tier: a push that grows it past nearCap
// spills the far half to the heap, keeping sorted inserts cheap.
const nearCap = 64

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

// eventQueue is the engine's pending-event container. The zero value is
// ready to use; both tiers keep their backing arrays across pops and reset,
// so steady-state operation at or below the high-water mark allocates
// nothing.
type eventQueue struct {
	size int // events queued across both tiers

	// near is the sorted near tier, ascending by (at, seq), consumed at
	// head. While the heap is empty it is the whole queue; otherwise it
	// holds exactly the queued events with at < lim.
	near []event
	head int
	lim  Time

	// heap holds every queued event at or after lim.
	heap eventHeap
}

// push files an event by tier.
func (q *eventQueue) push(e event) {
	q.size++
	if q.heap.len() > 0 && e.at >= q.lim {
		q.heap.push(e)
		return
	}
	// The tail append covers monotone schedules and same-instant bursts (a
	// new event always has the largest seq); everything else
	// binary-searches near[head:] (insertNear).
	b := q.near
	if n := len(b); n == q.head || b[n-1].before(&e) {
		q.near = append(b, e)
	} else {
		q.insertNear(e)
	}
	if len(q.near)-q.head > nearCap {
		q.spill()
	}
}

// insertNear is push's out-of-order path: binary-search the sorted tier,
// then shift whichever side of the insertion point is shorter. Pops leave
// zeroed slots behind the cursor, so when the head side is shorter — in
// particular for an Immediately event, which lands exactly at the cursor —
// the head half slides one slot left into reclaimed space: the
// grant-dispatch pattern (schedule at now, fire, repeat) costs O(1) instead
// of shifting the whole pending tail on every push.
func (q *eventQueue) insertNear(e event) {
	b := q.near
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
	q.near = b
}

// spill moves the near tier's far half to the heap and lowers lim to the
// first moved instant. The cut sits on an at boundary, so equal-time
// events stay in one tier; a near tier that holds a single instant has no
// such boundary and stays where it is (its inserts are tail appends).
func (q *eventQueue) spill() {
	s := q.near[q.head:]
	if s[0].at == s[len(s)-1].at {
		return
	}
	cut := len(s) / 2
	for cut < len(s) && s[cut].at == s[cut-1].at {
		cut++
	}
	if cut == len(s) {
		for cut = len(s) / 2; s[cut].at == s[cut-1].at; cut-- {
		}
	}
	q.lim = s[cut].at
	for i := cut; i < len(s); i++ {
		q.heap.push(s[i])
		s[i] = event{}
	}
	q.near = q.near[:q.head+cut]
}

// pop removes and returns the minimum event under (at, seq). The vacated
// slot is zeroed so the popped continuation (and everything it references)
// becomes collectible immediately. Whenever the near tier is left empty
// while the heap holds events, lim moves up to the heap's minimum, so
// near-future pushes return to the sorted tier.
func (q *eventQueue) pop() event {
	q.size--
	var e event
	if q.head < len(q.near) {
		e = q.near[q.head]
		q.near[q.head] = event{}
		q.head++
		if q.head < len(q.near) {
			return e
		}
		q.near = q.near[:0] // slots were zeroed as they were consumed
		q.head = 0
	} else {
		e = q.heap.pop()
	}
	if q.heap.len() > 0 {
		q.lim = q.heap.ev[0].at
	}
	return e
}

// minAt returns the earliest queued event time without popping. The queue
// must be non-empty.
func (q *eventQueue) minAt() Time {
	if q.head < len(q.near) {
		return q.near[q.head].at
	}
	return q.heap.ev[0].at
}

// reset empties the queue, zeroing every occupied slot so pending
// continuations are collectible, while keeping both backing arrays for
// reuse.
func (q *eventQueue) reset() {
	for i := range q.near {
		q.near[i] = event{}
	}
	q.near = q.near[:0]
	q.head = 0
	q.heap.reset()
	q.size = 0
}

// eventHeap is the concrete-typed 4-ary min-heap ordered by (at, seq) over
// a reusable backing array — an earlier generation's whole event queue,
// now the queue's overflow tier. A 4-ary layout halves the tree depth of a
// binary heap and keeps sibling comparisons within one or two cache lines;
// seq is unique, so the order is total and independent of heap shape.
type eventHeap struct {
	ev []event
}

func (q *eventHeap) len() int { return len(q.ev) }

// push inserts an event, growing only when the backing array is full.
func (q *eventHeap) push(e event) {
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

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the popped continuation becomes collectible immediately rather
// than being pinned by the backing array.
func (q *eventHeap) pop() event {
	s := q.ev
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the op so fired continuations are collectible
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

// reset empties the heap, zeroing occupied slots so pending continuations
// are collectible, while keeping the backing array for reuse.
func (q *eventHeap) reset() {
	s := q.ev
	for i := range s {
		s[i] = event{}
	}
	q.ev = s[:0]
}
