package cluster

import (
	"math"
	"runtime"
	"testing"

	"paralleltape/internal/rng"
	"paralleltape/internal/workload"
)

// TestRunAllocBudget pins the steady-state allocation count of Run: with
// the scratch pool warm, a run allocates only its result (the Result
// struct, the cluster slice, one object arena, and the unreferenced list)
// — a constant handful, independent of workload size. The pre-rework
// implementation allocated per atom, per edge, and per merge (tens of
// thousands at paper scale).
func TestRunAllocBudget(t *testing.T) {
	p := workload.Defaults()
	p.NumObjects = 600
	p.NumRequests = 40
	p.MinReqLen = 5
	p.MaxReqLen = 15
	w, err := workload.Generate(p, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if _, err := Run(w, cfg); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := Run(w, cfg); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 6 // measured 4 in every run, -race included
	if n > budget {
		t.Fatalf("Run allocates %.0f/run after warm-up, budget %d", n, budget)
	}
}

// TestRunMemoryPerEdge bounds what one cold clustering allocates, in bytes
// per similarity edge, and checks that the merge heap never held more
// entries than there are atoms. A fresh scratch makes every buffer allocate,
// as the first Run in a process does. The allocation is dominated by
// per-edge buffers: the pair-contribution stream and its radix-sort twin
// (16 bytes each per contribution), the edge list (24 bytes per
// contribution) and the adjacency arena, which holds each edge twice at
// 36 bytes an entry and is allocated at twice that. That is about 200
// bytes per edge when most pairs share one request, as here and at paper
// scale; an arena that grows by doubling, a spare compaction buffer or an
// edge-sized heap each pushes the figure well past the bound.
func TestRunMemoryPerEdge(t *testing.T) {
	p := workload.Defaults()
	p.NumObjects = 10000
	p.NumRequests = 100
	w, err := workload.Generate(p, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Run's automatic threshold: 0.9x the smallest request probability.
	cfg := DefaultConfig()
	cfg.Threshold = math.Inf(1)
	for i := range w.Requests {
		cfg.Threshold = math.Min(cfg.Threshold, 0.9*w.Requests[i].Prob)
	}
	s := &scratch{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	atoms, _ := buildAtomsInto(w, s)
	atoms = splitAtomsInto(w, atoms, cfg, s)
	agglomerateInto(w, atoms, cfg, s)
	runtime.ReadMemStats(&after)

	const maxBytesPerEdge = 260
	edges := len(s.edges)
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(edges)
	t.Logf("%d atoms, %d edges: %.0f bytes allocated per edge", len(atoms), edges, perEdge)
	if perEdge > maxBytesPerEdge {
		t.Errorf("a cold clustering allocates %.0f bytes per similarity edge, bound %d", perEdge, maxBytesPerEdge)
	}
	if cap(s.heap) > len(atoms) {
		t.Errorf("merge heap grew to %d slots for %d atoms", cap(s.heap), len(atoms))
	}
}
