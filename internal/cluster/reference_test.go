package cluster

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"paralleltape/internal/model"
	"paralleltape/internal/rng"
	"paralleltape/internal/workload"
)

// This file pins the CSR/scratch rewrite of the clustering pipeline to the
// original map-based implementation, kept here verbatim as referenceRun.
// The contract is bit-identity — every float64 in the result compared by
// its bit pattern — across all linkages and cap settings, on fresh and
// reused scratch.

// referenceRun is the pre-rewrite Run: map-grouped atoms, a
// map[int64]float64 edge accumulator, and map[int]linkInfo neighbor sets.
func referenceRun(w *model.Workload, cfg Config) (*Result, error) {
	if cfg.Threshold < 0 || math.IsNaN(cfg.Threshold) {
		return nil, fmt.Errorf("cluster: threshold must be non-negative, got %v", cfg.Threshold)
	}
	if cfg.Threshold == 0 {
		minProb := math.Inf(1)
		for i := range w.Requests {
			if p := w.Requests[i].Prob; p > 0 && p < minProb {
				minProb = p
			}
		}
		if math.IsInf(minProb, 1) {
			minProb = 1
		}
		cfg.Threshold = 0.9 * minProb
	}
	atoms, unreferenced := refBuildAtoms(w)
	atoms = refSplitAtoms(w, atoms, cfg)
	merged := refAgglomerate(w, atoms, cfg)
	res := &Result{Clusters: merged, Unreferenced: unreferenced}
	sort.Slice(res.Clusters, func(i, j int) bool {
		a, b := &res.Clusters[i], &res.Clusters[j]
		if a.Prob != b.Prob {
			return a.Prob > b.Prob
		}
		return a.Objects[0] < b.Objects[0]
	})
	return res, nil
}

func refBuildAtoms(w *model.Workload) ([]atom, []model.ObjectID) {
	byObject := w.RequestsByObject()
	sigKey := func(reqs []model.RequestID) string {
		b := make([]byte, 0, len(reqs)*4)
		for _, r := range reqs {
			b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
		return string(b)
	}
	var unreferenced []model.ObjectID
	groups := make(map[string]*atom)
	var order []string
	for i := range w.Objects {
		id := model.ObjectID(i)
		reqs := byObject[i]
		if len(reqs) == 0 {
			unreferenced = append(unreferenced, id)
			continue
		}
		k := sigKey(reqs)
		a := groups[k]
		if a == nil {
			a = &atom{reqs: reqs}
			groups[k] = a
			order = append(order, k)
		}
		a.objects = append(a.objects, id)
		a.bytes += w.Objects[i].Size
	}
	atoms := make([]atom, 0, len(order))
	for _, k := range order {
		atoms = append(atoms, *groups[k])
	}
	return atoms, unreferenced
}

func refSplitAtoms(w *model.Workload, atoms []atom, cfg Config) []atom {
	if cfg.MaxObjects <= 0 && cfg.MaxBytes <= 0 {
		return atoms
	}
	var out []atom
	for _, a := range atoms {
		cur := atom{reqs: a.reqs}
		flush := func() {
			if len(cur.objects) > 0 {
				out = append(out, cur)
				cur = atom{reqs: a.reqs}
			}
		}
		for _, id := range a.objects {
			size := w.Objects[id].Size
			overObjects := cfg.MaxObjects > 0 && len(cur.objects)+1 > cfg.MaxObjects
			overBytes := cfg.MaxBytes > 0 && len(cur.objects) > 0 && cur.bytes+size > cfg.MaxBytes
			if overObjects || overBytes {
				flush()
			}
			cur.objects = append(cur.objects, id)
			cur.bytes += size
		}
		flush()
	}
	return out
}

func refBuildEdges(w *model.Workload, atoms []atom) []pairEdge {
	atomsByReq := make([][]int32, len(w.Requests))
	for ai := range atoms {
		for _, r := range atoms[ai].reqs {
			atomsByReq[r] = append(atomsByReq[r], int32(ai))
		}
	}
	acc := make(map[int64]float64)
	for ri := range w.Requests {
		p := w.Requests[ri].Prob
		members := atomsByReq[ri]
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				a, b := members[i], members[j]
				if a > b {
					a, b = b, a
				}
				acc[int64(a)<<32|int64(b)] += p
			}
		}
	}
	edges := make([]pairEdge, 0, len(acc))
	for k, s := range acc {
		edges = append(edges, pairEdge{a: int(k >> 32), b: int(k & 0xFFFFFFFF), sim: s})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].a != edges[j].a {
			return edges[i].a < edges[j].a
		}
		return edges[i].b < edges[j].b
	})
	return edges
}

// refLiveCluster mirrors the old map-based liveCluster.
type refLiveCluster struct {
	alive     bool
	version   int32
	atoms     []int
	objects   int64
	bytes     int64
	reqBits   []uint64
	cohesion  float64
	neighbors map[int]linkInfo
}

// refCandidate and refCandHeap are the pre-rewrite heap kept verbatim: a
// binary max-heap with swap-based sifting and separate (a, b) tie fields.
// The production heap is 4-ary with a packed pair key; sharing a heap here
// would let a heap-order bug cancel out of the comparison, and keeping the
// original also pins the argument that heap shape cannot affect the merge
// sequence (equal-keyed candidates are interchangeable).
type refCandidate struct {
	sim        float64
	a, b       int32
	verA, verB int32
}

type refCandHeap []refCandidate

func refCandLess(x, y refCandidate) bool {
	if x.sim != y.sim {
		return x.sim > y.sim
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

func (h *refCandHeap) push(c refCandidate) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !refCandLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *refCandHeap) pop() refCandidate {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && refCandLess(s[l], s[best]) {
			best = l
		}
		if r < n && refCandLess(s[r], s[best]) {
			best = r
		}
		if best == i {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return top
}

func refAgglomerate(w *model.Workload, atoms []atom, cfg Config) []Cluster {
	nReq := len(w.Requests)
	words := (nReq + 63) / 64
	edges := refBuildEdges(w, atoms)
	degree := make([]int, len(atoms))
	for _, e := range edges {
		degree[e.a]++
		degree[e.b]++
	}
	arena := make([]refLiveCluster, len(atoms))
	bits := make([]uint64, words*len(atoms))
	clusters := make([]*refLiveCluster, len(atoms))
	for i, a := range atoms {
		c := &arena[i]
		*c = refLiveCluster{
			alive:     true,
			atoms:     []int{i},
			objects:   int64(len(a.objects)),
			bytes:     a.bytes,
			reqBits:   bits[i*words : (i+1)*words : (i+1)*words],
			cohesion:  math.Inf(1),
			neighbors: make(map[int]linkInfo, degree[i]),
		}
		for _, r := range a.reqs {
			c.reqBits[int(r)/64] |= 1 << (uint(r) % 64)
		}
		clusters[i] = c
	}

	parent := make([]int, len(atoms))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	h := make(refCandHeap, 0, len(edges))
	push := func(a, b int) {
		if a == b {
			return
		}
		ca, cb := clusters[a], clusters[b]
		li, ok := ca.neighbors[b]
		if !ok {
			return
		}
		sim := li.value(cfg.Linkage, ca.objects, cb.objects)
		if sim < cfg.Threshold {
			return
		}
		if cfg.MaxObjects > 0 && ca.objects+cb.objects > int64(cfg.MaxObjects) {
			return
		}
		if cfg.MaxBytes > 0 && ca.bytes+cb.bytes > cfg.MaxBytes {
			return
		}
		h.push(refCandidate{sim: sim, a: int32(a), b: int32(b), verA: ca.version, verB: cb.version})
	}

	for _, e := range edges {
		ca, cb := clusters[e.a], clusters[e.b]
		li := linkInfo{
			sumSim: e.sim * float64(ca.objects*cb.objects),
			minSim: e.sim,
			maxSim: e.sim,
			pairs:  ca.objects * cb.objects,
		}
		ca.neighbors[e.b] = li
		cb.neighbors[e.a] = li
		push(e.a, e.b)
	}

	var keys []int
	for len(h) > 0 {
		c := h.pop()
		a, b := find(int(c.a)), find(int(c.b))
		if a == b {
			continue
		}
		ca, cb := clusters[a], clusters[b]
		if a != int(c.a) || b != int(c.b) || ca.version != c.verA || cb.version != c.verB {
			if a > b {
				a, b = b, a
			}
			push(a, b)
			continue
		}
		if len(cb.neighbors) > len(ca.neighbors) {
			a, b = b, a
			ca, cb = cb, ca
		}
		parent[b] = a
		ca.version++
		ca.atoms = append(ca.atoms, cb.atoms...)
		ca.objects += cb.objects
		ca.bytes += cb.bytes
		for wi := range ca.reqBits {
			ca.reqBits[wi] |= cb.reqBits[wi]
		}
		ca.cohesion = c.sim
		cb.alive = false
		delete(ca.neighbors, b)
		delete(cb.neighbors, a)
		keys = keys[:0]
		for k := range cb.neighbors {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for _, k := range keys {
			li := cb.neighbors[k]
			if prev, ok := ca.neighbors[k]; ok {
				li = mergeLink(prev, li)
			}
			ca.neighbors[k] = li
			delete(clusters[k].neighbors, b)
			clusters[k].neighbors[a] = li
			if clusters[k].alive {
				if a < k {
					push(a, k)
				} else {
					push(k, a)
				}
			}
		}
		cb.neighbors = nil
	}

	var out []Cluster
	for _, c := range clusters {
		if !c.alive {
			continue
		}
		cl := Cluster{Bytes: c.bytes, Cohesion: c.cohesion,
			Objects: make([]model.ObjectID, 0, c.objects)}
		for _, ai := range c.atoms {
			cl.Objects = append(cl.Objects, atoms[ai].objects...)
		}
		sort.Slice(cl.Objects, func(i, j int) bool { return cl.Objects[i] < cl.Objects[j] })
		for ri := range w.Requests {
			if c.reqBits[ri/64]&(1<<(uint(ri)%64)) != 0 {
				cl.Prob += w.Requests[ri].Prob
			}
		}
		out = append(out, cl)
	}
	return out
}

// requireBitIdentical fails unless got and want agree field for field, with
// float64s compared by bit pattern.
func requireBitIdentical(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Clusters) != len(want.Clusters) {
		t.Fatalf("cluster count: got %d, want %d", len(got.Clusters), len(want.Clusters))
	}
	if len(got.Unreferenced) != len(want.Unreferenced) {
		t.Fatalf("unreferenced count: got %d, want %d", len(got.Unreferenced), len(want.Unreferenced))
	}
	for i := range want.Unreferenced {
		if got.Unreferenced[i] != want.Unreferenced[i] {
			t.Fatalf("unreferenced[%d]: got %d, want %d", i, got.Unreferenced[i], want.Unreferenced[i])
		}
	}
	for i := range want.Clusters {
		g, w := &got.Clusters[i], &want.Clusters[i]
		if g.Bytes != w.Bytes {
			t.Fatalf("cluster %d bytes: got %d, want %d", i, g.Bytes, w.Bytes)
		}
		if math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
			t.Fatalf("cluster %d prob bits: got %x (%v), want %x (%v)",
				i, math.Float64bits(g.Prob), g.Prob, math.Float64bits(w.Prob), w.Prob)
		}
		if math.Float64bits(g.Cohesion) != math.Float64bits(w.Cohesion) {
			t.Fatalf("cluster %d cohesion bits: got %x (%v), want %x (%v)",
				i, math.Float64bits(g.Cohesion), g.Cohesion, math.Float64bits(w.Cohesion), w.Cohesion)
		}
		if len(g.Objects) != len(w.Objects) {
			t.Fatalf("cluster %d size: got %d, want %d", i, len(g.Objects), len(w.Objects))
		}
		for j := range w.Objects {
			if g.Objects[j] != w.Objects[j] {
				t.Fatalf("cluster %d object %d: got %d, want %d", i, j, g.Objects[j], w.Objects[j])
			}
		}
	}
}

// equivalenceWorkloads returns the workload matrix the rewrite is pinned
// on: a paper-shaped generated workload plus crafted shapes that exercise
// atom collapse, unreferenced objects, shared objects, and cap splits.
func equivalenceWorkloads(t *testing.T) map[string]*model.Workload {
	t.Helper()
	p := workload.Defaults()
	p.NumObjects = 4000
	p.NumRequests = 80
	p.MinReqLen = 20
	p.MaxReqLen = 40
	gen, err := workload.Generate(p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	p2 := workload.Defaults()
	p2.NumObjects = 1500
	p2.NumRequests = 120
	p2.MinReqLen = 5
	p2.MaxReqLen = 60
	p2.Alpha = 0.4
	dense, err := workload.Generate(p2, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*model.Workload{
		"paper":  gen,
		"dense":  dense,
		"chains": wl(6, []model.ObjectID{0, 1}, []model.ObjectID{1, 2}, []model.ObjectID{2, 3}, []model.ObjectID{4, 5}),
		"collapse": wlWeighted(8, []float64{0.5, 0.3, 0.2},
			[]model.ObjectID{0, 1, 2, 3}, []model.ObjectID{0, 1, 2, 3}, []model.ObjectID{4, 5}),
	}
}

func TestRunMatchesReference(t *testing.T) {
	configs := map[string]Config{
		"average-auto":    {Linkage: Average},
		"single-auto":     {Linkage: Single},
		"complete-auto":   {Linkage: Complete},
		"average-thresh":  {Linkage: Average, Threshold: 0.01},
		"single-thresh":   {Linkage: Single, Threshold: 0.005},
		"complete-thresh": {Linkage: Complete, Threshold: 0.002},
		"average-capped":  {Linkage: Average, MaxObjects: 64, MaxBytes: 1 << 20},
		"single-capped":   {Linkage: Single, MaxObjects: 16},
		"complete-capped": {Linkage: Complete, MaxBytes: 1 << 18},
	}
	for wname, w := range equivalenceWorkloads(t) {
		for cname, cfg := range configs {
			want, err := referenceRun(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Four runs back to back: every run after the first reuses
			// the scratch buffers the previous one left behind.
			for pass := 0; pass < 4; pass++ {
				got, err := Run(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(wname+"/"+cname, func(t *testing.T) {
					requireBitIdentical(t, got, want)
				})
				if err := got.Validate(w); err != nil {
					t.Fatalf("%s/%s pass %d: %v", wname, cname, pass, err)
				}
			}
		}
	}
}

// TestRunScratchReuseStable re-runs the same clustering many times so every
// scratch buffer is recycled (and the adjacency arena compaction path is
// hit) and demands bit-identical output each time.
func TestRunScratchReuseStable(t *testing.T) {
	w := equivalenceWorkloads(t)["paper"]
	want, err := referenceRun(w, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := Run(w, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, got, want)
	}
}
