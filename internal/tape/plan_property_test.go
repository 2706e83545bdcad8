package tape

import (
	"math"
	"testing"

	"paralleltape/internal/model"
	"paralleltape/internal/rng"
)

// seekBytes is the tape distance the head travels between reads when the
// extents are read in order from head position start.
func seekBytes(start int64, order []Extent) int64 {
	var d int64
	pos := start
	for _, e := range order {
		if e.Start >= pos {
			d += e.Start - pos
		} else {
			d += pos - e.Start
		}
		pos = e.End()
	}
	return d
}

// minSeekBytes is the brute-force oracle: the smallest seekBytes over every
// order of the extents (Heap's algorithm, in place).
func minSeekBytes(start int64, extents []Extent) int64 {
	a := append([]Extent(nil), extents...)
	best := seekBytes(start, a)
	c := make([]int, len(a))
	for i := 0; i < len(a); {
		if c[i] < i {
			if i%2 == 0 {
				a[0], a[i] = a[i], a[0]
			} else {
				a[c[i]], a[i] = a[i], a[c[i]]
			}
			best = min(best, seekBytes(start, a))
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	return best
}

// TestPlanReadsAgainstBruteForce checks PlanReads against every order of
// up to seven random extents. From a head at or left of every extent the
// plan must reach the brute-force minimum; from any head position it can
// never beat it. SeekTime is linear in distance, so the comparison runs on
// byte distances: seconds summed in a different order would round
// differently.
func TestPlanReadsAgainstBruteForce(t *testing.T) {
	h := DefaultHardware()
	r := rng.New(20060815)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(7)
		extents := make([]Extent, n)
		pos := int64(r.Intn(50))
		for i := range extents {
			size := int64(1 + r.Intn(40))
			extents[i] = Extent{Object: model.ObjectID(i), Start: pos, Size: size}
			pos += size + int64(r.Intn(60))
		}
		r.Shuffle(n, func(i, j int) { extents[i], extents[j] = extents[j], extents[i] })
		first := extents[0].Start
		for _, e := range extents {
			first = min(first, e.Start)
		}
		for _, head := range []int64{int64(r.Intn(int(first) + 1)), int64(r.Intn(int(pos) + 40))} {
			plan := PlanReads(h, head, extents)
			if len(plan.Order) != n {
				t.Fatalf("trial %d: plan reads %d of %d extents", trial, len(plan.Order), n)
			}
			got := seekBytes(head, plan.Order)
			if want := float64(got) / h.LocateRate(); math.Abs(plan.SeekTotal-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("trial %d: SeekTotal %v s, but the order seeks %d bytes (%v s)", trial, plan.SeekTotal, got, want)
			}
			best := minSeekBytes(head, extents)
			if got < best {
				t.Fatalf("trial %d head %d: plan seeks %d bytes, below the brute-force minimum %d", trial, head, got, best)
			}
			if head <= first && got != best {
				t.Fatalf("trial %d head %d (at or left of every extent): plan seeks %d bytes, minimum is %d",
					trial, head, got, best)
			}
		}
	}
}

// TestPlanReadsNotMinimalRightOfExtents pins the documented case where a
// head resting between extents makes both sweeps worse than the best
// order.
func TestPlanReadsNotMinimalRightOfExtents(t *testing.T) {
	extents := []Extent{{Object: 0, Start: 0, Size: 1}, {Object: 1, Start: 98, Size: 1}, {Object: 2, Start: 101, Size: 1}}
	plan := PlanReads(DefaultHardware(), 100, extents)
	if got := seekBytes(100, plan.Order); got != 199 {
		t.Fatalf("plan seeks %d bytes, want the cheaper sweep's 199", got)
	}
	if best := minSeekBytes(100, extents); best != 104 {
		t.Fatalf("brute-force minimum %d, want 104 (101 → 98 → 0)", best)
	}
}
