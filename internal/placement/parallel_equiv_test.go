package placement

import (
	"math"
	"testing"

	"paralleltape/internal/model"
)

// requireSameResult asserts two placements are byte-identical: every object
// location, every layout extent, the mount tables, the per-tape probability
// table (compared through Float64bits — bit-identical, not approximately
// equal), and the tape count.
func requireSameResult(t *testing.T, w *model.Workload, a, b *Result) {
	t.Helper()
	if a.Scheme != b.Scheme {
		t.Fatalf("scheme %q vs %q", a.Scheme, b.Scheme)
	}
	if a.TapesUsed != b.TapesUsed {
		t.Fatalf("TapesUsed %d vs %d", a.TapesUsed, b.TapesUsed)
	}
	for i := 0; i < w.NumObjects(); i++ {
		la, oka := a.Catalog.Lookup(model.ObjectID(i))
		lb, okb := b.Catalog.Lookup(model.ObjectID(i))
		if oka != okb || la != lb {
			t.Fatalf("object %d at %v/%v vs %v/%v", i, la, oka, lb, okb)
		}
	}
	ta, tb := a.Catalog.Tapes(), b.Catalog.Tapes()
	if len(ta) != len(tb) {
		t.Fatalf("%d vs %d cartridges", len(ta), len(tb))
	}
	for i, k := range ta {
		if k != tb[i] {
			t.Fatalf("cartridge %d: %s vs %s", i, k, tb[i])
		}
		lla, _ := a.Catalog.Layout(k)
		llb, _ := b.Catalog.Layout(k)
		ea, eb := lla.Extents(), llb.Extents()
		if len(ea) != len(eb) {
			t.Fatalf("%s: %d vs %d extents", k, len(ea), len(eb))
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("%s extent %d: %+v vs %+v", k, j, ea[j], eb[j])
			}
		}
	}
	for lib := range a.InitialMounts {
		for d := range a.InitialMounts[lib] {
			if a.InitialMounts[lib][d] != b.InitialMounts[lib][d] {
				t.Fatalf("mount L%d.D%d: %d vs %d", lib, d, a.InitialMounts[lib][d], b.InitialMounts[lib][d])
			}
			if a.Pinned[lib][d] != b.Pinned[lib][d] {
				t.Fatalf("pin L%d.D%d: %v vs %v", lib, d, a.Pinned[lib][d], b.Pinned[lib][d])
			}
		}
	}
	if len(a.TapeProb) != len(b.TapeProb) {
		t.Fatalf("TapeProb sized %d vs %d", len(a.TapeProb), len(b.TapeProb))
	}
	for k, pa := range a.TapeProb {
		pb, ok := b.TapeProb[k]
		if !ok || math.Float64bits(pa) != math.Float64bits(pb) {
			t.Fatalf("TapeProb[%s] = %x vs %x (present=%v)", k,
				math.Float64bits(pa), math.Float64bits(pb), ok)
		}
	}
}

// TestOnlineAndBaselinesUnchangedByRework is a belt-and-braces determinism
// check across the builder rework: every scheme placed twice yields
// byte-identical results (the golden tests pin absolute outputs; this pins
// run-to-run stability including TapeProb bits).
func TestOnlineAndBaselinesUnchangedByRework(t *testing.T) {
	hw := smallHW()
	w := smallWL(t, 9)
	schemes := []Scheme{
		ObjectProbability{},
		ClusterProbability{},
		ParallelBatch{M: 2},
		RoundRobin{},
		Online{Epochs: 3, M: 2},
	}
	for _, s := range schemes {
		a, err := s.Place(w, hw)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		b, err := s.Place(w, hw)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		requireSameResult(t, w, a, b)
	}
}
