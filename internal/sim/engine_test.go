package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		e.ScheduleOp(d, opFunc(func() { order = append(order, d) }), 0)
	}
	end := e.Run()
	if end != 5 {
		t.Errorf("final time = %v, want 5", end)
	}
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events fired out of order: %v", order)
	}
	if len(order) != 5 {
		t.Errorf("fired %d events, want 5", len(order))
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleOp(1, opFunc(func() { order = append(order, i) }), 0)
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of scheduling order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []float64
	e.ScheduleOp(1, opFunc(func() {
		times = append(times, e.Now())
		e.ScheduleOp(2, opFunc(func() {
			times = append(times, e.Now())
			e.ScheduleOp(3, opFunc(func() { times = append(times, e.Now()) }), 0)
		}), 0)
	}), 0)
	e.Run()
	want := []float64{1, 3, 6}
	if len(times) != 3 {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("times[%d] = %v, want %v", i, times[i], want[i])
		}
	}
}

func TestEngineImmediatelyOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	e.ScheduleOp(0, opFunc(func() { order = append(order, "a") }), 0)
	e.ImmediatelyOp(opFunc(func() { order = append(order, "b") }), 0)
	e.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("order = %v", order)
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewEngine().ScheduleOp(-1, opFunc(func() {}), 0)
}

func TestEngineNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil continuation did not panic")
		}
	}()
	NewEngine().ScheduleOp(0, nil, 0)
}

func TestEngineEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(10)
	var loop opFunc
	loop = func() { e.ScheduleOp(1, loop, 0) }
	e.ScheduleOp(0, loop, 0)
	defer func() {
		if recover() == nil {
			t.Error("event limit did not panic")
		}
	}()
	e.Run()
}

func TestEngineDeterministic(t *testing.T) {
	run := func() []float64 {
		e := NewEngine()
		var trace []float64
		var recur func(depth int)
		recur = func(depth int) {
			trace = append(trace, e.Now())
			if depth == 0 {
				return
			}
			e.ScheduleOp(0.5, opFunc(func() { recur(depth - 1) }), 0)
			e.ScheduleOp(1.5, opFunc(func() { recur(depth - 1) }), 0)
		}
		e.ScheduleOp(0, opFunc(func() { recur(6) }), 0)
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEngineQuickSortedFiring(t *testing.T) {
	// Property: however delays are chosen, firing order is non-decreasing.
	f := func(raw []uint16) bool {
		e := NewEngine()
		var seen []float64
		record := opFunc(func() { seen = append(seen, e.Now()) })
		for _, r := range raw {
			e.ScheduleOp(float64(r)/100, record, 0)
		}
		e.Run()
		return sort.Float64sAreSorted(seen) && len(seen) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
