package catalog_test

import (
	"fmt"
	"slices"
	"testing"

	"paralleltape/internal/catalog"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/tape"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

// memoPlacements places one small generated workload with parallel-batch
// and with object-probability.
func memoPlacements(t *testing.T) (*model.Workload, map[string]*catalog.Catalog) {
	t.Helper()
	hw := tape.DefaultHardware()
	hw.Libraries = 3
	hw.DrivesPerLib = 3
	hw.TapesPerLib = 16
	hw.Capacity = 200 * units.MB
	w, err := workload.Generate(workload.Params{
		NumObjects:  400,
		NumRequests: 40,
		MinObjSize:  1 * units.MB,
		MaxObjSize:  8 * units.MB,
		ObjShape:    1.1,
		MinReqLen:   1,
		MaxReqLen:   40,
		ReqLenShape: 1,
		Alpha:       0.3,
	}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	cats := make(map[string]*catalog.Catalog)
	for _, s := range []placement.Scheme{placement.ParallelBatch{M: 2}, placement.ObjectProbability{}} {
		pr, err := s.Place(w, hw)
		if err != nil {
			t.Fatal(err)
		}
		cats[s.Name()] = pr.Catalog
	}
	return w, cats
}

// sameGroups compares two groupings by cartridge, bytes and extents.
func sameGroups(got, want []catalog.TapeGroup) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Tape != w.Tape || g.Bytes != w.Bytes || !slices.Equal(g.Extents, w.Extents) {
			return fmt.Errorf("group %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// TestGrouperMemoMatchesFreshGrouping is the memo's oracle: one Grouper
// groups every request several times in a shuffled order, and each result
// must equal what a fresh Grouper, which has no memo, makes of the same
// request. It also covers an ID reused for another object list, a list
// edited in place, and an unplaced object, none of which may be answered
// from the memo.
func TestGrouperMemoMatchesFreshGrouping(t *testing.T) {
	w, cats := memoPlacements(t)
	for name, c := range cats {
		t.Run(name, func(t *testing.T) {
			gr := catalog.NewGrouper(c)
			check := func(r *model.Request, what string) {
				t.Helper()
				want, err := catalog.NewGrouper(c).Group(r)
				if err != nil {
					t.Fatalf("%s: fresh grouping: %v", what, err)
				}
				got, err := gr.Group(r)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if err := sameGroups(got, want); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}

			var order []int
			for rep := 0; rep < 4; rep++ {
				for i := range w.Requests {
					order = append(order, i)
				}
			}
			rng.New(11).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			hits := 0
			for _, i := range order {
				r := &w.Requests[i]
				if catalog.Remembers(gr, r.ID) {
					hits++
				}
				check(r, fmt.Sprintf("request %d", r.ID))
			}
			if want := len(order) - len(w.Requests); hits != want {
				t.Fatalf("%d calls found a memo entry, want %d", hits, want)
			}

			// Another object list under a remembered ID, then the original.
			a, b := &w.Requests[0], &w.Requests[1]
			reused := &model.Request{ID: a.ID, Prob: a.Prob, Objects: b.Objects}
			check(reused, "reused ID")
			check(a, "original after reused ID")

			// A list edited in place between two calls.
			edited := &model.Request{ID: b.ID, Prob: b.Prob, Objects: slices.Clone(b.Objects)}
			check(edited, "copy of a remembered list")
			for id := model.ObjectID(0); ; id++ {
				if !slices.Contains(edited.Objects, id) {
					edited.Objects[len(edited.Objects)/2] = id
					break
				}
			}
			check(edited, "list edited in place")
			check(b, "original after edit")

			// An unplaced object fails, records nothing and leaves the
			// memo usable.
			const badID = model.RequestID(1 << 20)
			bad := &model.Request{ID: badID, Prob: 1, Objects: []model.ObjectID{a.Objects[0], model.ObjectID(w.NumObjects() + 7)}}
			if _, err := gr.Group(bad); err == nil {
				t.Fatal("unplaced object grouped without error")
			}
			if catalog.Remembers(gr, badID) {
				t.Fatal("a failed request left a memo entry")
			}
			for i := range w.Requests {
				check(&w.Requests[i], fmt.Sprintf("request %d after an error", i))
			}
		})
	}
}

// BenchmarkGrouperGroup groups a paper-scale workload's predefined requests
// (30,000 objects, 300 requests, parallel-batch with m = 4) in a fixed
// shuffled order, through one Grouper whose scratch is warm. In "first"
// every call carries the same request ID with another object list, so
// each one misses the memo, groups from scratch and records its entry: the
// cost of a request's first submission. In "repeat" every request was
// grouped once before, so each call is a hit: the cost of every later
// submission. Both report ns per request.
func BenchmarkGrouperGroup(b *testing.B) {
	w, err := workload.Generate(workload.Defaults(), rng.New(20060815))
	if err != nil {
		b.Fatal(err)
	}
	pr, err := placement.ParallelBatch{M: 4}.Place(w, tape.DefaultHardware())
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]model.Request, len(w.Requests))
	copy(reqs, w.Requests)
	rng.New(1).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	run := func(b *testing.B, reqs []model.Request) {
		gr := catalog.NewGrouper(pr.Catalog)
		for i := range reqs {
			if _, err := gr.Group(&reqs[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for i := range reqs {
				if _, err := gr.Group(&reqs[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/request")
	}
	b.Run("first", func(b *testing.B) {
		oneID := slices.Clone(reqs)
		for i := range oneID {
			oneID[i].ID = 0
		}
		run(b, oneID)
	})
	b.Run("repeat", func(b *testing.B) { run(b, reqs) })
}
