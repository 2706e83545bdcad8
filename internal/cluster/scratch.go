package cluster

import (
	"sync"

	"paralleltape/internal/model"
)

// scratch holds every reusable intermediate buffer one Run needs. Placement
// runs clustering once per (workload, config) point, but sweeps and
// benchmarks call Run thousands of times; recycling the buffers through a
// free list (mirroring the tapesys Submit scratch pattern) keeps the
// steady-state allocation count independent of workload size. Nothing in a
// scratch escapes into the returned Result — outputs are freshly allocated.
type scratch struct {
	// buildAtomsInto: object→request CSR index, signature-sorted ids, atoms.
	objReqOff []int32
	objReqs   []model.RequestID
	cursor    []int32
	ids       []int32
	atomObjs  []model.ObjectID
	atoms     []atom
	split     []atom

	// buildEdgesInto: request→atom CSR index, flat pair contributions (plus
	// radix-sort temporaries and count arrays), edges.
	reqOff     []int32
	reqAtoms   []int32
	entries    []edgeEntry
	entriesTmp []edgeEntry
	counts     []int32
	edges      []pairEdge

	// agglomerate: the cluster table; the degree pre-count, reused as
	// compaction's span order; atom lists; request bitsets; the adjacency
	// arena (keys and aggregates), allocated at twice the initial entries
	// and compacted in place, never grown; and the heap, one slot per atom.
	clusters []liveCluster
	degree   []int32
	atomNext []int32
	bits     []uint64
	nbrs     []int32
	links    []linkInfo
	heap     []int32
}

// The free list is a mutex-guarded stack rather than a sync.Pool: pool
// entries can vanish at any GC, which would make the AllocsPerRun budget
// tests (and the tapebench allocs/op gate) flake. Retention is bounded by
// the number of concurrent Run calls, which the experiment sweep caps at
// its worker count.
var (
	scratchMu   sync.Mutex
	scratchFree []*scratch
)

func getScratch() *scratch {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	if n := len(scratchFree); n > 0 {
		s := scratchFree[n-1]
		scratchFree = scratchFree[:n-1]
		return s
	}
	return &scratch{}
}

func putScratch(s *scratch) {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	if len(scratchFree) < 8 {
		scratchFree = append(scratchFree, s)
	}
}

// ReleaseScratch empties the free list, so the garbage collector can
// reclaim the buffers it keeps. Each kept scratch stays sized to the
// largest input it has clustered; a caller done with a batch of large
// clusterings (experiments.All) releases them instead of holding them for
// the rest of the process. The next Run allocates a fresh scratch, and a
// Run in flight returns its own as usual.
func ReleaseScratch() {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	scratchFree = nil
}

// growI32 returns a zeroed int32 slice of length n, reusing buf's backing
// array when it is large enough.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// growSlice returns s resized to length n (contents undefined), reusing the
// backing array when possible.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
