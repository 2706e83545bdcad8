// Package cluster implements §5.1: hierarchical clustering of objects by
// co-access similarity. The similarity of a set of objects is the total
// probability of the requests that contain the whole set; following
// Johnson's agglomerative scheme [17], objects are merged bottom-up and the
// hierarchy is cut at a preset probability threshold.
//
// # Atoms
//
// The paper notes that "requests information are used to reduce the
// clustering computation costs". We push that idea to its limit: two
// objects contained in exactly the same set of requests are
// indistinguishable to every linkage criterion, so they are collapsed into
// one atom before any pairwise work. In the paper's workload (30,000
// objects, 300 requests, ~120 objects each) most objects appear in exactly
// one request, so the ~21,000 referenced objects collapse into a few
// thousand atoms and the pairwise similarity graph shrinks from millions of
// object pairs to a few hundred thousand atom pairs — with bit-identical
// results to object-level clustering.
//
// # Data layout
//
// The whole pipeline runs on flat, index-addressed storage recycled across
// calls through a scratch free list: object→request and request→atom
// incidence as CSR index pairs, pairwise similarities as a sorted flat
// entry slice aggregated by a single scan, and live-cluster adjacency as
// sorted spans into one arena, allocated once at twice the initial entries
// and compacted in place whenever its tail fills. A merge never shifts a
// neighbor's span: the absorbed cluster's entry stays in its sorted slot as
// a tombstone, an entry whose key is a cluster that is no longer alive.
// Spans therefore stay sorted with unique keys, every binary search for a
// live key stays exact, and nothing looks a dead key up again; walks and
// compaction skip tombstones.
//
// Merges are chosen by the generic algorithm of Müllner ("Modern
// hierarchical, agglomerative clustering algorithms", arXiv:1109.2378),
// turned from distances to similarities: a heap holds one entry per live
// cluster, an upper bound on its best merge with a neighbor above its own
// index, and an entry that surfaces stale is rescanned rather than merged.
// The merge sequence is the greedy (similarity, lower index, higher index)
// order of the original implementation. docs/PERFORMANCE.md ("Placement
// pipeline") sketches the layout and the argument for why every
// transformation reproduces the original map-based results bit for bit.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"paralleltape/internal/model"
)

// Linkage selects how inter-cluster similarity is derived from object-pair
// similarities when clusters grow beyond single objects.
type Linkage int

const (
	// Average linkage: mean pairwise similarity between members (default;
	// robust for the paper's request-cluster structure).
	Average Linkage = iota
	// Single linkage: maximum pairwise similarity (merges chains eagerly).
	Single
	// Complete linkage: minimum pairwise similarity (most conservative).
	Complete
)

func (l Linkage) String() string {
	switch l {
	case Average:
		return "average"
	case Single:
		return "single"
	case Complete:
		return "complete"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Config controls clustering.
type Config struct {
	// Threshold is the preset probability value the hierarchy is cut at:
	// merging stops when no cluster pair's linkage similarity reaches it.
	// Zero selects an automatic threshold of 0.9× the smallest positive
	// request probability: every request's exclusive objects then cohere
	// (their pairwise similarity is exactly that request's probability)
	// while chains across requests require genuinely shared mass. The
	// automatic value adapts to the workload's request count and skew.
	Threshold float64
	// Linkage selects the inter-cluster similarity criterion.
	Linkage Linkage
	// MaxObjects, if positive, refuses merges that would produce a cluster
	// with more objects (placement sometimes wants clusters bounded near
	// the batch width; §5.1's "general rule").
	MaxObjects int
	// MaxBytes, if positive, refuses merges that would exceed this total
	// size (a cluster must fit its tape batch).
	MaxBytes int64
	// Parallel is ignored: clustering always runs on the calling
	// goroutine.
	//
	// Deprecated: the parallel similarity-edge aggregation it selected
	// was removed (the edge build is about 2% of a Run). The field stays
	// so existing callers keep compiling.
	Parallel bool
}

// DefaultConfig returns the configuration used by the paper reproduction:
// average linkage with the automatic (workload-relative) threshold.
func DefaultConfig() Config {
	return Config{Linkage: Average}
}

// Cluster is one output group.
type Cluster struct {
	Objects []model.ObjectID // sorted ascending
	Bytes   int64            // total size of member objects
	// Prob is the cluster access probability: the total probability of
	// requests touching at least one member (what cluster-probability
	// placement sorts by).
	Prob float64
	// Cohesion is the linkage similarity at which the final merge forming
	// this cluster happened (+Inf for singletons).
	Cohesion float64
}

// Result is the clustering output.
type Result struct {
	Clusters []Cluster
	// Unreferenced lists objects in no request at all (probability 0);
	// they are excluded from clustering and placed by schemes as cold
	// filler.
	Unreferenced []model.ObjectID
}

// atom is a maximal set of objects sharing one request signature.
type atom struct {
	objects []model.ObjectID
	bytes   int64
	reqs    []model.RequestID // sorted signature
}

// Run clusters the workload's objects under cfg.
func Run(w *model.Workload, cfg Config) (*Result, error) {
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
	if cfg.Linkage != Average && cfg.Linkage != Single && cfg.Linkage != Complete {
		return nil, fmt.Errorf("cluster: unknown linkage %d", int(cfg.Linkage))
	}
	s := getScratch()
	defer putScratch(s)
	atoms, unreferenced := buildAtomsInto(w, s)
	atoms = splitAtomsInto(w, atoms, cfg, s)
	merged := agglomerateInto(w, atoms, cfg, s)
	res := &Result{Clusters: merged, Unreferenced: unreferenced}
	// Objects[0] is unique per cluster (the clusters partition the
	// referenced objects), so this comparison is a total order and the
	// unstable sort cannot reorder equals.
	slices.SortFunc(res.Clusters, func(a, b Cluster) int {
		if a.Prob != b.Prob {
			return cmp.Compare(b.Prob, a.Prob)
		}
		return cmp.Compare(a.Objects[0], b.Objects[0])
	})
	return res, nil
}

// buildAtomsInto groups objects by request signature using s for every
// intermediate. The returned atoms alias s (objects and reqs point into
// scratch arenas) and are valid until the next use of s; unreferenced is
// freshly allocated.
//
// Atoms come out ordered by their smallest member object ID, which is
// exactly the first-seen order of the old map-based grouping (objects are
// scanned in ascending ID order, so a group is first seen at its minimum
// member).
func buildAtomsInto(w *model.Workload, s *scratch) ([]atom, []model.ObjectID) {
	nObj := len(w.Objects)
	// Object → request CSR index (replaces model.RequestsByObject, which
	// allocates one slice per object).
	off := growI32(s.objReqOff, nObj+1)
	for i := range w.Requests {
		for _, id := range w.Requests[i].Objects {
			off[id+1]++
		}
	}
	for i := 0; i < nObj; i++ {
		off[i+1] += off[i]
	}
	reqs := growSlice(s.objReqs, int(off[nObj]))
	cur := growSlice(s.cursor, nObj)
	copy(cur, off[:nObj])
	for i := range w.Requests {
		rid := w.Requests[i].ID
		for _, id := range w.Requests[i].Objects {
			reqs[cur[id]] = rid
			cur[id]++
		}
	}
	nRef, nUnref := 0, 0
	for i := 0; i < nObj; i++ {
		span := reqs[off[i]:off[i+1]]
		if len(span) == 0 {
			nUnref++
			continue
		}
		nRef++
		if len(span) > 1 {
			slices.Sort(span)
		}
	}
	var unreferenced []model.ObjectID
	if nUnref > 0 {
		unreferenced = make([]model.ObjectID, 0, nUnref)
		for i := 0; i < nObj; i++ {
			if off[i] == off[i+1] {
				unreferenced = append(unreferenced, model.ObjectID(i))
			}
		}
	}
	// Sort the referenced IDs by (signature, ID): equal signatures become
	// contiguous runs — the atoms — and the ID tiebreak keeps each atom's
	// member list ascending.
	ids := growSlice(s.ids, nRef)
	ids = ids[:0]
	for i := 0; i < nObj; i++ {
		if off[i] != off[i+1] {
			ids = append(ids, int32(i))
		}
	}
	slices.SortFunc(ids, func(x, y int32) int {
		if c := slices.Compare(reqs[off[x]:off[x+1]], reqs[off[y]:off[y+1]]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	objArena := growSlice(s.atomObjs, nRef)
	for i, id := range ids {
		objArena[i] = model.ObjectID(id)
	}
	atoms := s.atoms[:0]
	for lo := 0; lo < len(ids); {
		x := ids[lo]
		sig := reqs[off[x]:off[x+1]]
		hi := lo + 1
		for hi < len(ids) {
			y := ids[hi]
			if !slices.Equal(sig, reqs[off[y]:off[y+1]]) {
				break
			}
			hi++
		}
		a := atom{objects: objArena[lo:hi:hi], reqs: sig}
		for _, id := range a.objects {
			a.bytes += w.Objects[id].Size
		}
		atoms = append(atoms, a)
		lo = hi
	}
	slices.SortFunc(atoms, func(a, b atom) int {
		return cmp.Compare(a.objects[0], b.objects[0])
	})
	s.objReqOff, s.objReqs, s.cursor = off, reqs, cur
	s.ids, s.atomObjs, s.atoms = ids, objArena, atoms
	return atoms, unreferenced
}

// splitAtomsInto breaks atoms that already violate the configured caps into
// compliant chunks. Objects within an atom are interchangeable, so any
// split preserves clustering semantics; merges between the chunks are then
// refused by the same caps during agglomeration. Chunks are contiguous
// subslices of the parent atom's member list, so no object storage moves.
func splitAtomsInto(w *model.Workload, atoms []atom, cfg Config, s *scratch) []atom {
	if cfg.MaxObjects <= 0 && cfg.MaxBytes <= 0 {
		return atoms
	}
	out := s.split[:0]
	for _, a := range atoms {
		lo := 0
		var bytes int64
		for i, id := range a.objects {
			size := w.Objects[id].Size
			overObjects := cfg.MaxObjects > 0 && i-lo+1 > cfg.MaxObjects
			overBytes := cfg.MaxBytes > 0 && i > lo && bytes+size > cfg.MaxBytes
			if overObjects || overBytes {
				out = append(out, atom{objects: a.objects[lo:i:i], bytes: bytes, reqs: a.reqs})
				lo, bytes = i, 0
			}
			bytes += size
		}
		if lo < len(a.objects) {
			n := len(a.objects)
			out = append(out, atom{objects: a.objects[lo:n:n], bytes: bytes, reqs: a.reqs})
		}
	}
	s.split = out
	return out
}

// pairEdge accumulates the similarity structure between two atoms: every
// cross-object pair between atoms a and b has the identical similarity
// s(a,b) = Σ P(R) over requests containing both atoms.
type pairEdge struct {
	a, b int // atom indices, a < b
	sim  float64
}

// edgeEntry is one request's probability contribution to one atom pair,
// keyed by the packed pair (a<<32 | b). The flat entry stream replaces the
// old map[int64]float64 accumulator: a stable sort by key groups each
// pair's contributions while preserving their request order, so the scan
// in scanEntries performs the identical floating-point additions in the
// identical order.
type edgeEntry struct {
	key int64
	p   float64
}

// buildEdgesInto computes s(a,b) for all co-occurring atom pairs into
// s.edges, sorted by (a, b).
func buildEdgesInto(w *model.Workload, atoms []atom, s *scratch) []pairEdge {
	nReq := len(w.Requests)
	// Request → atom CSR index. Atoms are scanned in index order, so each
	// request's member span comes out ascending; pair keys within one
	// request are then generated in ascending order too.
	rOff := growI32(s.reqOff, nReq+1)
	for ai := range atoms {
		for _, r := range atoms[ai].reqs {
			rOff[r+1]++
		}
	}
	for i := 0; i < nReq; i++ {
		rOff[i+1] += rOff[i]
	}
	rAtoms := growSlice(s.reqAtoms, int(rOff[nReq]))
	cur := growSlice(s.cursor, nReq)
	copy(cur, rOff[:nReq])
	for ai := range atoms {
		for _, r := range atoms[ai].reqs {
			rAtoms[cur[r]] = int32(ai)
			cur[r]++
		}
	}
	pairs := 0
	for ri := 0; ri < nReq; ri++ {
		m := int(rOff[ri+1] - rOff[ri])
		pairs += m * (m - 1) / 2
	}
	s.reqOff, s.reqAtoms, s.cursor = rOff, rAtoms, cur

	// Emit every pair contribution in request order, then stable-sort by
	// key, so equal keys stay in request order for the scan.
	entries := growSlice(s.entries, pairs)
	pos := 0
	for ri := 0; ri < nReq; ri++ {
		members := rAtoms[rOff[ri]:rOff[ri+1]]
		p := w.Requests[ri].Prob
		for i := 0; i < len(members); i++ {
			a := int64(members[i]) << 32
			for j := i + 1; j < len(members); j++ {
				entries[pos] = edgeEntry{key: a | int64(members[j]), p: p}
				pos++
			}
		}
	}
	tmp := growSlice(s.entriesTmp, pairs)
	count := growSlice(s.counts, len(atoms))
	radixSortEntries(entries, tmp, count)
	s.entries, s.entriesTmp, s.counts = entries, tmp, count
	// Every edge sums at least one contribution, so the entry count bounds
	// the edge count: the list is sized once and the scan never regrows it.
	s.edges = scanEntries(growSlice(s.edges, pairs)[:0], entries)
	return s.edges
}

// radixSortEntries stable-sorts entries by key with two counting passes —
// low half (b), then high half (a) of the packed pair key. Both halves are
// atom indices, so one count array of len(atoms) slots serves both passes
// and stays cache-resident; being a stable sort, equal keys keep their
// request order exactly as the comparison sort it replaced did. tmp must
// be at least len(entries) long.
func radixSortEntries(entries, tmp []edgeEntry, count []int32) {
	tmp = tmp[:len(entries)]
	for pass := 0; pass < 2; pass++ {
		shift := uint(32 * pass)
		for i := range count {
			count[i] = 0
		}
		for i := range entries {
			count[int32(entries[i].key>>shift)]++
		}
		sum := int32(0)
		for d := range count {
			c := count[d]
			count[d] = sum
			sum += c
		}
		for i := range entries {
			d := int32(entries[i].key >> shift)
			tmp[count[d]] = entries[i]
			count[d]++
		}
		entries, tmp = tmp, entries
	}
	// Two swaps: the sorted data ended up back in the caller's slice.
}

// scanEntries aggregates a key-sorted entry stream into edges. Entries with
// equal keys are summed left to right, which by the stable sort is their
// request order — matching the old map accumulator addition for addition.
func scanEntries(edges []pairEdge, entries []edgeEntry) []pairEdge {
	for i := 0; i < len(entries); {
		k := entries[i].key
		sum := entries[i].p
		j := i + 1
		for j < len(entries) && entries[j].key == k {
			sum += entries[j].p
			j++
		}
		edges = append(edges, pairEdge{a: int(k >> 32), b: int(k & 0xFFFFFFFF), sim: sum})
		i = j
	}
	return edges
}

// linkInfo tracks the object-level pair-similarity aggregate between two
// live clusters, sufficient to evaluate any of the three linkages.
type linkInfo struct {
	sumSim float64 // Σ over cross object pairs of their similarity
	minSim float64
	maxSim float64
	pairs  int64 // number of cross object pairs with nonzero similarity
}

func (li linkInfo) value(l Linkage, sizeA, sizeB int64) float64 {
	switch l {
	case Single:
		return li.maxSim
	case Complete:
		// Pairs with zero similarity drag the minimum to zero.
		if li.pairs < sizeA*sizeB {
			return 0
		}
		return li.minSim
	default: // Average: zero-sim pairs count in the denominator.
		return li.sumSim / float64(sizeA*sizeB)
	}
}

func mergeLink(x, y linkInfo) linkInfo {
	out := linkInfo{
		sumSim: x.sumSim + y.sumSim,
		pairs:  x.pairs + y.pairs,
		minSim: x.minSim,
		maxSim: x.maxSim,
	}
	if y.minSim < out.minSim {
		out.minSim = y.minSim
	}
	if y.maxSim > out.maxSim {
		out.maxSim = y.maxSim
	}
	return out
}

// The adjacency arena stores neighbor records as two parallel arrays: the
// neighbor cluster indices (nbrs, the search keys) and the pair-similarity
// aggregates (links, the payloads). A live cluster's neighbors occupy one
// nbr-sorted span [adjOff, adjOff+adjLen) of both arrays, so lookups are
// binary searches and the deterministic "fold b's neighbors in ascending
// key order" of the old map implementation becomes a linear merge walk.
// Splitting keys from the 40-byte payloads keeps the searched data dense —
// sixteen int32 keys per cache line instead of one or two full records —
// which is most of the lookup cost at ~10^5 searches per run.

// liveCluster is one active cluster during agglomeration. Member atoms are
// kept as an intrusive linked list through agg.atomNext (head/tail splice
// on merge, no copying); neighbors are the arena span [adjOff, adjOff+adjLen),
// which holds dead tombstones among its entries.
//
// Each queued cluster x is one heap entry (bound, partner): an upper bound
// on the similarity of x's best eligible merge with a neighbor above its own
// index, and the neighbor it was computed for. The invariant is
// lexicographic: every eligible neighbor y > x has sim(x, y) < bound, or
// sim(x, y) == bound and y ≥ partner. A cluster with no eligible neighbor
// above it is not queued (slot -1).
type liveCluster struct {
	objects  int64 // object count
	bytes    int64
	cohesion float64 // linkage value of the last merge
	bound    float64 // heap key; see the invariant above
	adjOff   int32
	adjLen   int32
	dead     int32
	atomHead int32
	atomTail int32
	partner  int32 // the neighbor bound was computed or raised for
	slot     int32 // position in agg.heap, or -1
	alive    bool
}

// agg bundles the agglomeration state so merge steps can be methods.
type agg struct {
	cfg      Config
	words    int // request-bitset words per cluster
	clusters []liveCluster
	atomNext []int32
	bits     []uint64
	nbrs     []int32    // adjacency keys (parallel to links)
	links    []linkInfo // adjacency payloads
	order    []int32    // compaction's span order (one slot per atom)
	heap     []int32    // queued clusters, a binary heap ordered by before
}

// degree returns c's live neighbor count: its span minus the tombstones.
func (c *liveCluster) degree() int { return int(c.adjLen - c.dead) }

// lowerBound returns the first index in the sorted keys not less than nbr.
func lowerBound(keys []int32, nbr int32) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < nbr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findKey returns the index of nbr within the sorted keys, or -1.
func findKey(keys []int32, nbr int32) int {
	if lo := lowerBound(keys, nbr); lo < len(keys) && keys[lo] == nbr {
		return lo
	}
	return -1
}

// eligible returns the linkage similarity of live clusters x and y linked
// by li, and whether they may merge: it reaches the threshold and the caps
// allow the union.
func (g *agg) eligible(x, y *liveCluster, li linkInfo) (float64, bool) {
	sim := li.value(g.cfg.Linkage, x.objects, y.objects)
	ok := sim >= g.cfg.Threshold &&
		(g.cfg.MaxObjects <= 0 || x.objects+y.objects <= int64(g.cfg.MaxObjects)) &&
		(g.cfg.MaxBytes <= 0 || x.bytes+y.bytes <= g.cfg.MaxBytes)
	return sim, ok
}

// before orders heap entries: the larger bound first, then the smaller
// index. An entry stands for its cluster's best pair above its own index
// (smallest partner among equals), so this is the greedy (sim desc, a asc,
// b asc) pair order; indices are unique, so the order is total and the
// merge sequence does not depend on the heap's shape.
func (g *agg) before(x, y int32) bool {
	bx, by := g.clusters[x].bound, g.clusters[y].bound
	if bx != by {
		return bx > by
	}
	return x < y
}

// sift moves the entry at slot i up or down to its place, writing each
// displaced entry once.
func (g *agg) sift(i int) {
	h := g.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !g.before(x, h[p]) {
			break
		}
		h[i] = h[p]
		g.clusters[h[i]].slot = int32(i)
		i = p
	}
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && g.before(h[c+1], h[c]) {
			c++
		}
		if !g.before(h[c], x) {
			break
		}
		h[i] = h[c]
		g.clusters[h[i]].slot = int32(i)
		i = c
	}
	h[i] = x
	g.clusters[x].slot = int32(i)
}

// queue sets x's entry to (sim, partner), queuing x if needed.
func (g *agg) queue(x int32, sim float64, partner int32) {
	c := &g.clusters[x]
	c.bound, c.partner = sim, partner
	if c.slot < 0 {
		c.slot = int32(len(g.heap))
		g.heap = append(g.heap, x)
	}
	g.sift(int(c.slot))
}

// dequeue removes x's entry, if x is queued.
func (g *agg) dequeue(x int32) {
	i := int(g.clusters[x].slot)
	if i < 0 {
		return
	}
	g.clusters[x].slot = -1
	last := g.heap[len(g.heap)-1]
	g.heap = g.heap[:len(g.heap)-1]
	if last != x {
		g.heap[i] = last
		g.sift(i)
	}
}

// rescan recomputes x's entry exactly from its span above its own index:
// the best eligible similarity and, among equals, the smallest neighbor
// (keys ascend, so the first maximum wins). x leaves the heap when no
// neighbor above it is eligible.
func (g *agg) rescan(x int32) {
	c := &g.clusters[x]
	keys := g.nbrs[c.adjOff : c.adjOff+c.adjLen]
	lis := g.links[c.adjOff : c.adjOff+c.adjLen]
	best, bestSim := int32(-1), 0.0
	for i := lowerBound(keys, x); i < len(keys); i++ {
		k := &g.clusters[keys[i]]
		if !k.alive {
			continue
		}
		if sim, ok := g.eligible(c, k, lis[i]); ok && (best < 0 || sim > bestSim) {
			best, bestSim = keys[i], sim
		}
	}
	if best < 0 {
		g.dequeue(x)
		return
	}
	g.queue(x, bestSim, best)
}

// raise restores neighbor k's invariant after merges changed the link
// (k, a) to li: when k lies below survivor a and the pair beats k's entry —
// a larger similarity, or an equal one with a smaller index than k's
// partner — the entry becomes the pair. Pairs above a are a's own entry's.
func (g *agg) raise(k, a int32, li linkInfo) {
	if k > a {
		return
	}
	ck := &g.clusters[k]
	sim, ok := g.eligible(ck, &g.clusters[a], li)
	if ok && (ck.slot < 0 || sim > ck.bound || sim == ck.bound && a < ck.partner) {
		g.queue(k, sim, a)
	}
}

// renameNbr rewrites k's entry for old to refer to new with aggregate li,
// keeping k's span sorted. new must not already be present in the span
// (guaranteed: renames happen only for neighbors adjacent to exactly one
// of the merging pair). The entry is rotated directly from old's slot to
// new's sorted slot, moving only the records between the two positions.
func (g *agg) renameNbr(k, old, new int32, li linkInfo) {
	cl := &g.clusters[k]
	off, n := int(cl.adjOff), int(cl.adjLen)
	keys := g.nbrs[off : off+n]
	lis := g.links[off : off+n]
	po := findKey(keys, old)
	lb := lowerBound(keys, new)
	if lb > po {
		lb--
		copy(keys[po:lb], keys[po+1:lb+1])
		copy(lis[po:lb], lis[po+1:lb+1])
	} else {
		copy(keys[lb+1:po+1], keys[lb:po])
		copy(lis[lb+1:po+1], lis[lb:po])
	}
	keys[lb] = new
	lis[lb] = li
}

// mergeNbr gives k's entry for a the merged aggregate li; k's entry for the
// absorbed cluster, already dead, stays in its sorted slot as one more
// tombstone of k's span.
func (g *agg) mergeNbr(k, a int32, li linkInfo) {
	cl := &g.clusters[k]
	off := int(cl.adjOff)
	g.links[off+findKey(g.nbrs[off:off+int(cl.adjLen)], a)] = li
	cl.dead++
}

// ensure makes room for need entries at the arena tail by compacting the
// live spans to the front, in place, when the tail is full. The arena holds
// twice the initial entries, and a merge only joins neighbor sets, so the
// live entries never exceed the initial count; need (the merging pair's
// live degrees) never exceeds the live entries, so after a compaction the
// tail always has room and the arena never grows. Spans move in offset
// order, so each lands at or below where it was and no copy overwrites an
// entry not yet moved; a compacted span holds no tombstones.
func (g *agg) ensure(need int) {
	if len(g.nbrs)+need <= cap(g.nbrs) {
		return
	}
	order := g.order[:0]
	for i := range g.clusters {
		if c := &g.clusters[i]; c.alive && c.adjLen > 0 {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(x, y int32) int {
		return cmp.Compare(g.clusters[x].adjOff, g.clusters[y].adjOff)
	})
	n := int32(0)
	for _, i := range order {
		c := &g.clusters[i]
		off := n
		if c.dead == 0 {
			copy(g.nbrs[n:], g.nbrs[c.adjOff:c.adjOff+c.adjLen])
			copy(g.links[n:], g.links[c.adjOff:c.adjOff+c.adjLen])
			n += c.adjLen
		} else {
			for j := c.adjOff; j < c.adjOff+c.adjLen; j++ {
				if g.clusters[g.nbrs[j]].alive {
					g.nbrs[n], g.links[n] = g.nbrs[j], g.links[j]
					n++
				}
			}
		}
		c.adjOff, c.adjLen, c.dead = off, n-off, 0
	}
	g.nbrs, g.links = g.nbrs[:n], g.links[:n]
}

// union merges cluster b into a (a keeps its index), assuming a, b are live
// and the caller already validated the merge. The new adjacency span for a
// is written at the arena tail by a linear merge of a's and b's spans in
// ascending neighbor order, skipping tombstones on both sides (b, dead by
// then, is one of a's); for each neighbor taken from b's side the reverse
// edge is retargeted, and each such neighbor below a has its heap entry
// raised to the new pair where it beats it. a's rebuilt span holds no
// tombstones; b leaves the heap and a's entry is recomputed from scratch.
//
// Every other entry stays an upper bound: a neighbor of a alone keeps its
// link while a grows, which never raises its similarity (average linkage
// divides by more pairs, complete linkage may drop to zero, single linkage
// stays), and the caps only refuse more.
func (g *agg) union(a, b int32, sim float64) {
	ca, cb := &g.clusters[a], &g.clusters[b]
	// Reserve arena room first: a compaction here still sees both spans as
	// live and relocates them coherently before we capture them below.
	g.ensure(ca.degree() + cb.degree())
	g.atomNext[ca.atomTail] = cb.atomHead
	ca.atomTail = cb.atomTail
	ca.objects += cb.objects
	ca.bytes += cb.bytes
	wa := g.bits[int(a)*g.words : (int(a)+1)*g.words]
	wb := g.bits[int(b)*g.words : (int(b)+1)*g.words]
	for wi := range wa {
		wa[wi] |= wb[wi]
	}
	ca.cohesion = sim
	cb.alive = false
	g.dequeue(b)

	ka := g.nbrs[ca.adjOff : ca.adjOff+ca.adjLen]
	la := g.links[ca.adjOff : ca.adjOff+ca.adjLen]
	kb := g.nbrs[cb.adjOff : cb.adjOff+cb.adjLen]
	lb := g.links[cb.adjOff : cb.adjOff+cb.adjLen]
	base := len(g.nbrs)
	ia, ib := 0, 0
	for ia < len(ka) && ib < len(kb) {
		if !g.clusters[ka[ia]].alive {
			ia++
			continue
		}
		if kb[ib] == a || !g.clusters[kb[ib]].alive {
			ib++
			continue
		}
		switch {
		case ka[ia] < kb[ib]:
			// Run of a-only neighbors: aggregates unchanged and no side
			// effects, so the whole run up to the next b-side key or
			// tombstone is one bulk copy. a is the larger adjacency, so
			// this is the common case.
			lim := kb[ib]
			run := ia + 1
			for run < len(ka) && ka[run] < lim && g.clusters[ka[run]].alive {
				run++
			}
			g.nbrs = append(g.nbrs, ka[ia:run]...)
			g.links = append(g.links, la[ia:run]...)
			ia = run
		case kb[ib] < ka[ia]:
			// Neighbor of b only: a inherits the aggregate; retarget the
			// reverse edge.
			k, li := kb[ib], lb[ib]
			g.nbrs = append(g.nbrs, k)
			g.links = append(g.links, li)
			g.renameNbr(k, b, a, li)
			g.raise(k, a, li)
			ib++
		default:
			// Shared neighbor: merge the aggregates (a's first, matching
			// the old fold's mergeLink(prev, li) argument order).
			k := ka[ia]
			li := mergeLink(la[ia], lb[ib])
			g.nbrs = append(g.nbrs, k)
			g.links = append(g.links, li)
			g.mergeNbr(k, a, li)
			g.raise(k, a, li)
			ia++
			ib++
		}
	}
	// a's tail: bulk copies of the runs between tombstones.
	for ia < len(ka) {
		if !g.clusters[ka[ia]].alive {
			ia++
			continue
		}
		run := ia + 1
		for run < len(ka) && g.clusters[ka[run]].alive {
			run++
		}
		g.nbrs = append(g.nbrs, ka[ia:run]...)
		g.links = append(g.links, la[ia:run]...)
		ia = run
	}
	// b's tail: still needs the per-entry retarget and raise.
	for ; ib < len(kb); ib++ {
		if kb[ib] == a || !g.clusters[kb[ib]].alive {
			continue
		}
		k, li := kb[ib], lb[ib]
		g.nbrs = append(g.nbrs, k)
		g.links = append(g.links, li)
		g.renameNbr(k, b, a, li)
		g.raise(k, a, li)
	}
	ca.adjOff = int32(base)
	ca.adjLen = int32(len(g.nbrs) - base)
	ca.dead = 0
	cb.adjLen, cb.dead = 0, 0
	g.rescan(a)
}

func agglomerateInto(w *model.Workload, atoms []atom, cfg Config, s *scratch) []Cluster {
	nReq := len(w.Requests)
	words := (nReq + 63) / 64
	edges := buildEdgesInto(w, atoms, s)
	n := len(atoms)

	// Pre-count adjacency degrees so every span is born at its final
	// initial size inside one arena of twice that size (see ensure).
	degree := growI32(s.degree, n)
	for _, e := range edges {
		degree[e.a]++
		degree[e.b]++
	}
	clusters := growSlice(s.clusters, n)
	atomNext := growSlice(s.atomNext, n)
	bitsArena := growSlice(s.bits, words*n)
	for i := range bitsArena {
		bitsArena[i] = 0
	}
	nbrs := growSlice(s.nbrs, 4*len(edges))[:2*len(edges)]
	links := growSlice(s.links, 4*len(edges))[:2*len(edges)]
	off := int32(0)
	for i := range atoms {
		clusters[i] = liveCluster{
			objects:  int64(len(atoms[i].objects)),
			bytes:    atoms[i].bytes,
			cohesion: math.Inf(1),
			adjOff:   off,
			adjLen:   degree[i],
			atomHead: int32(i),
			atomTail: int32(i),
			slot:     -1,
			alive:    true,
		}
		off += degree[i]
		atomNext[i] = -1
		cw := bitsArena[i*words : (i+1)*words]
		for _, r := range atoms[i].reqs {
			cw[int(r)/64] |= 1 << (uint(r) % 64)
		}
	}

	g := &agg{
		cfg: cfg, words: words,
		clusters: clusters, atomNext: atomNext,
		bits: bitsArena, nbrs: nbrs, links: links,
		order: degree, heap: growSlice(s.heap, n)[:0],
	}
	// Initial fill: edges are sorted by (a, b), so filling both directions
	// in edge order leaves every span sorted by neighbor.
	cur := growSlice(s.cursor, n)
	for i := range clusters {
		cur[i] = clusters[i].adjOff
	}
	for _, e := range edges {
		ca, cb := &clusters[e.a], &clusters[e.b]
		li := linkInfo{
			sumSim: e.sim * float64(ca.objects*cb.objects),
			minSim: e.sim,
			maxSim: e.sim,
			pairs:  ca.objects * cb.objects,
		}
		g.nbrs[cur[e.a]], g.links[cur[e.a]] = int32(e.b), li
		cur[e.a]++
		g.nbrs[cur[e.b]], g.links[cur[e.b]] = int32(e.a), li
		cur[e.b]++
	}
	s.cursor = cur
	for x := range clusters {
		g.rescan(int32(x))
	}

	// The top entry merges when its partner is alive and still at the
	// bound: the invariant then makes the pair the greedy maximum.
	// Otherwise the bound is stale (the partner died, or a grew and its
	// similarity fell), and the cluster is rescanned.
	for len(g.heap) > 0 {
		x := g.heap[0]
		cx := &clusters[x]
		if cp := &clusters[cx.partner]; cp.alive {
			li := g.links[int(cx.adjOff)+findKey(g.nbrs[cx.adjOff:cx.adjOff+cx.adjLen], cx.partner)]
			if sim, ok := g.eligible(cx, cp, li); ok && sim == cx.bound {
				// Merge the smaller adjacency into the larger, counting live
				// neighbors: span lengths include tombstones, and comparing
				// them would change which index survives.
				a, b := x, cx.partner
				if cp.degree() > cx.degree() {
					a, b = b, a
				}
				g.union(a, b, sim)
				continue
			}
		}
		g.rescan(x)
	}

	// Write the scratch-owned state back (compaction reslices the arena)
	// before materializing the freshly allocated output.
	s.clusters, s.atomNext, s.bits, s.degree = g.clusters, g.atomNext, g.bits, degree
	s.nbrs, s.links, s.heap = g.nbrs, g.links, g.heap

	nAlive, totObjs := 0, 0
	for i := range clusters {
		if clusters[i].alive {
			nAlive++
			totObjs += int(clusters[i].objects)
		}
	}
	out := make([]Cluster, 0, nAlive)
	objArena := make([]model.ObjectID, 0, totObjs)
	for i := range clusters {
		c := &clusters[i]
		if !c.alive {
			continue
		}
		start := len(objArena)
		for ai := c.atomHead; ; ai = atomNext[ai] {
			objArena = append(objArena, atoms[ai].objects...)
			if ai == c.atomTail {
				break
			}
		}
		objs := objArena[start:len(objArena):len(objArena)]
		slices.Sort(objs)
		cl := Cluster{Objects: objs, Bytes: c.bytes, Cohesion: c.cohesion}
		cw := bitsArena[i*words : (i+1)*words]
		for wi, word := range cw {
			for word != 0 {
				ri := wi*64 + bits.TrailingZeros64(word)
				cl.Prob += w.Requests[ri].Prob
				word &= word - 1
			}
		}
		out = append(out, cl)
	}
	return out
}

// Validate checks that the result partitions the referenced objects of w:
// every object appears exactly once across clusters + unreferenced.
func (r *Result) Validate(w *model.Workload) error {
	seen := make([]bool, w.NumObjects())
	mark := func(id model.ObjectID) error {
		if int(id) < 0 || int(id) >= len(seen) {
			return fmt.Errorf("cluster: unknown object %d in result", id)
		}
		if seen[id] {
			return fmt.Errorf("cluster: object %d appears twice in result", id)
		}
		seen[id] = true
		return nil
	}
	for _, c := range r.Clusters {
		if len(c.Objects) == 0 {
			return fmt.Errorf("cluster: empty cluster in result")
		}
		var bytes int64
		for _, id := range c.Objects {
			if err := mark(id); err != nil {
				return err
			}
			bytes += w.Objects[id].Size
		}
		if bytes != c.Bytes {
			return fmt.Errorf("cluster: byte count mismatch (%d vs %d)", bytes, c.Bytes)
		}
	}
	for _, id := range r.Unreferenced {
		if err := mark(id); err != nil {
			return err
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("cluster: object %d missing from result", i)
		}
	}
	return nil
}
