package placement

import "testing"

// TestPlaceAllocBudget pins the steady-state allocation count of the full
// ParallelBatch pipeline at the small test scale. The pipeline allocates
// only its outputs (catalog, layouts, mount tables) plus a bounded handful
// of working slices; the per-object and per-edge intermediates come from
// the cluster scratch pool and the placement allocScratch. A regression
// that reintroduces per-unit or per-tape allocations trips this budget
// immediately — at this scale the pre-rework pipeline cost several
// thousand allocations per run.
func TestPlaceAllocBudget(t *testing.T) {
	hw := smallHW()
	w := smallWL(t, 1)
	s := ParallelBatch{M: 2}
	// Warm the cluster scratch pool so the measurement sees steady state.
	if _, err := s.Place(w, hw); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := s.Place(w, hw); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 96 (98 under -race) in every run; the slack covers the
	// catalog's and tape-probability maps, whose growth allocates
	// differently across Go versions and hash seeds.
	const budget = 104
	if n > budget {
		t.Fatalf("ParallelBatch.Place allocates %.0f/run, budget %d", n, budget)
	}
}
