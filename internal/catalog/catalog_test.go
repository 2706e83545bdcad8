package catalog

import (
	"bytes"
	"reflect"
	"testing"

	"paralleltape/internal/model"
	"paralleltape/internal/tape"
)

func hw() tape.Hardware {
	h := tape.DefaultHardware()
	h.Capacity = 1000
	h.TapesPerLib = 4
	h.DrivesPerLib = 2
	h.Libraries = 2
	return h
}

// build places objects {0:100, 1:200, 2:300, 3:150} on two cartridges.
func build(t *testing.T) *Catalog {
	t.Helper()
	c := New(4)
	l0 := tape.NewLayout(tape.Key{Library: 0, Index: 0})
	mustAppend(t, l0, 0, 100)
	mustAppend(t, l0, 1, 200)
	l1 := tape.NewLayout(tape.Key{Library: 1, Index: 2})
	mustAppend(t, l1, 2, 300)
	mustAppend(t, l1, 3, 150)
	if err := c.AddLayout(l0); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLayout(l1); err != nil {
		t.Fatal(err)
	}
	return c
}

func mustAppend(t *testing.T, l *tape.Layout, id model.ObjectID, size int64) {
	t.Helper()
	if _, err := l.Append(id, size, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestLookup(t *testing.T) {
	c := build(t)
	loc, ok := c.Lookup(1)
	if !ok {
		t.Fatal("object 1 not found")
	}
	if loc.Tape != (tape.Key{Library: 0, Index: 0}) {
		t.Errorf("tape = %v", loc.Tape)
	}
	if loc.Extent.Start != 100 || loc.Extent.Size != 200 {
		t.Errorf("extent = %+v", loc.Extent)
	}
	if _, ok := c.Lookup(99); ok {
		t.Error("unknown object found")
	}
	if _, ok := c.Lookup(-1); ok {
		t.Error("negative object found")
	}
}

func TestNumPlacedAndTapes(t *testing.T) {
	c := build(t)
	for id := model.ObjectID(0); id < 4; id++ {
		if _, ok := c.Lookup(id); !ok {
			t.Errorf("object %d not placed", id)
		}
	}
	keys := c.Tapes()
	if len(keys) != 2 {
		t.Fatalf("Tapes = %v", keys)
	}
	if keys[0] != (tape.Key{Library: 0, Index: 0}) || keys[1] != (tape.Key{Library: 1, Index: 2}) {
		t.Errorf("tape order: %v", keys)
	}
	if _, ok := c.Layout(keys[1]); !ok {
		t.Error("Layout lookup failed")
	}
}

func TestAddLayoutRejectsDuplicateCartridge(t *testing.T) {
	c := build(t)
	if err := c.AddLayout(tape.NewLayout(tape.Key{Library: 0, Index: 0})); err == nil {
		t.Error("duplicate cartridge accepted")
	}
}

func TestAddLayoutRejectsDuplicateObject(t *testing.T) {
	c := build(t)
	l := tape.NewLayout(tape.Key{Library: 0, Index: 3})
	mustAppend(t, l, 0, 100) // object 0 already on L0.T0
	if err := c.AddLayout(l); err == nil {
		t.Error("object placed twice accepted")
	}
}

func TestAddLayoutRejectsUnknownObject(t *testing.T) {
	c := New(2)
	l := tape.NewLayout(tape.Key{})
	mustAppend(t, l, 7, 100)
	if err := c.AddLayout(l); err == nil {
		t.Error("unknown object accepted")
	}
}

func TestGroupRequest(t *testing.T) {
	c := build(t)
	r := &model.Request{ID: 0, Prob: 1, Objects: []model.ObjectID{0, 2, 3}}
	groups, err := NewGrouper(c).Group(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %+v", groups)
	}
	if groups[0].Tape.Library != 0 || len(groups[0].Extents) != 1 || groups[0].Bytes != 100 {
		t.Errorf("group 0: %+v", groups[0])
	}
	if groups[1].Tape.Library != 1 || len(groups[1].Extents) != 2 || groups[1].Bytes != 450 {
		t.Errorf("group 1: %+v", groups[1])
	}
	// Extents within a group sorted by start.
	if groups[1].Extents[0].Start > groups[1].Extents[1].Start {
		t.Error("group extents unsorted")
	}
}

func TestGroupRequestUnplaced(t *testing.T) {
	c := New(5)
	r := &model.Request{ID: 0, Prob: 1, Objects: []model.ObjectID{4}}
	if _, err := NewGrouper(c).Group(r); err == nil {
		t.Error("unplaced object grouped without error")
	}
}

// TestGrouperReuse runs one Grouper over two different requests back to
// back, then over a request that fails midway on an unplaced object, then
// over one more request: each result must equal the grouping worked out by
// hand from build's layout (L0.T0 holds 0@0+100 and 1@100+200; L1.T2 holds
// 2@0+300 and 3@300+150), so no state leaks from one call into the next.
func TestGrouperReuse(t *testing.T) {
	c := build(t)
	gr := NewGrouper(c)
	l0, l1 := tape.Key{Library: 0, Index: 0}, tape.Key{Library: 1, Index: 2}
	e0 := tape.Extent{Object: 0, Start: 0, Size: 100}
	e1 := tape.Extent{Object: 1, Start: 100, Size: 200}
	e2 := tape.Extent{Object: 2, Start: 0, Size: 300}
	e3 := tape.Extent{Object: 3, Start: 300, Size: 150}
	steps := []struct {
		objects []model.ObjectID
		want    []TapeGroup // nil: the request must fail
	}{
		{[]model.ObjectID{3, 0, 2}, []TapeGroup{
			{Tape: l0, Extents: []tape.Extent{e0}, Bytes: 100},
			{Tape: l1, Extents: []tape.Extent{e2, e3}, Bytes: 450},
		}},
		{[]model.ObjectID{1, 0}, []TapeGroup{
			{Tape: l0, Extents: []tape.Extent{e0, e1}, Bytes: 300},
		}},
		{[]model.ObjectID{2, 1, 9}, nil},
		{[]model.ObjectID{3, 1}, []TapeGroup{
			{Tape: l0, Extents: []tape.Extent{e1}, Bytes: 200},
			{Tape: l1, Extents: []tape.Extent{e3}, Bytes: 150},
		}},
	}
	for i, st := range steps {
		got, err := gr.Group(&model.Request{ID: model.RequestID(i), Prob: 1, Objects: st.objects})
		if st.want == nil {
			if err == nil {
				t.Errorf("request %d (%v): unplaced object grouped without error", i, st.objects)
			}
			continue
		}
		if err != nil {
			t.Fatalf("request %d (%v): %v", i, st.objects, err)
		}
		if !reflect.DeepEqual(got, st.want) {
			t.Errorf("request %d (%v):\n got  %+v\n want %+v", i, st.objects, got, st.want)
		}
	}
}

func workload4() *model.Workload {
	return &model.Workload{
		Objects: []model.Object{
			{ID: 0, Size: 100}, {ID: 1, Size: 200}, {ID: 2, Size: 300}, {ID: 3, Size: 150},
		},
		Requests: []model.Request{
			{ID: 0, Prob: 1, Objects: []model.ObjectID{0, 1, 2, 3}},
		},
	}
}

func TestValidateComplete(t *testing.T) {
	c := build(t)
	if err := c.Validate(workload4(), hw()); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateDetectsMissingObject(t *testing.T) {
	c := New(4)
	l := tape.NewLayout(tape.Key{})
	mustAppend(t, l, 0, 100)
	if err := c.AddLayout(l); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(workload4(), hw()); err == nil {
		t.Error("incomplete placement accepted")
	}
}

func TestValidateDetectsSizeMismatch(t *testing.T) {
	c := New(4)
	l := tape.NewLayout(tape.Key{})
	mustAppend(t, l, 0, 999) // workload says 100
	mustAppend(t, l, 1, 1)
	l2 := tape.NewLayout(tape.Key{Index: 1})
	mustAppend(t, l2, 2, 300)
	mustAppend(t, l2, 3, 150)
	c.AddLayout(l)
	c.AddLayout(l2)
	if err := c.Validate(workload4(), hw()); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestValidateDetectsGeometryViolation(t *testing.T) {
	c := build(t)
	// hw with only 1 library: cartridge L1.T2 is out of range.
	h := hw()
	h.Libraries = 1
	if err := c.Validate(workload4(), h); err == nil {
		t.Error("out-of-range library accepted")
	}
	h2 := hw()
	h2.TapesPerLib = 2
	if err := c.Validate(workload4(), h2); err == nil {
		t.Error("out-of-range slot accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := build(t)
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loc, ok := got.Lookup(3)
	if !ok || loc.Tape != (tape.Key{Library: 1, Index: 2}) || loc.Extent.Start != 300 {
		t.Errorf("Lookup(3) after round trip = %+v, %v", loc, ok)
	}
	if err := got.Validate(workload4(), hw()); err != nil {
		t.Errorf("round-tripped catalog invalid: %v", err)
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{nope")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestReadJSONRejectsOutOfRange: a negative object count used to reach New
// and panic in makeslice, and the catalog holds cartridge keys as int32s.
func TestReadJSONRejectsOutOfRange(t *testing.T) {
	for _, raw := range []string{
		`{"num_objects":-1,"tapes":[]}`,
		`{"num_objects":1,"tapes":[{"library":4294967296,"index":0,"extents":[{"object":0,"start":0,"size":5}]}]}`,
	} {
		if _, err := ReadJSON(bytes.NewBufferString(raw)); err == nil {
			t.Errorf("accepted %s", raw)
		}
	}
}

func TestReadJSONRejectsNonContiguous(t *testing.T) {
	raw := `{"num_objects":1,"tapes":[{"library":0,"index":0,"extents":[{"object":0,"start":50,"size":10}]}]}`
	if _, err := ReadJSON(bytes.NewBufferString(raw)); err == nil {
		t.Error("non-contiguous extent accepted")
	}
}
