// Package loadbalance implements §5.4's tape load balancing: the greedy
// zigzag algorithm of Figure 3 that splits one object cluster across the
// tapes of a batch so per-tape load (Σ P(O)·size(O)) stays even and a
// request transferring the cluster engages many drives in parallel.
//
// A first-fit "most free space" baseline is included for the ablation
// benchmarks.
package loadbalance

import (
	"fmt"
	"slices"
)

// Item is one object to place: its balancing load P(O)·size(O) and its
// physical size in bytes.
type Item struct {
	Load float64
	Size int64
}

// TapeState is the balancer's view of one tape in the batch. The balancer
// mutates Load and Free as it assigns items.
type TapeState struct {
	Load float64 // accumulated Σ P(O)·size(O)
	Free int64   // remaining capacity in bytes
}

// ChooseSpread picks ndrv, the number of tapes a cluster is split across
// (Figure 3's "assign ndrv a proper value based on info of C and tapes").
// §5.3 step 5: split only "if their aggregate size is big enough";
// otherwise one tape saves a switch without hurting transfer time. A
// cluster worth splitting gets one tape per splitThreshold bytes, capped by
// the batch width and the object count (an object is never split).
func ChooseSpread(clusterBytes int64, numObjects, numTapes int, splitThreshold int64) int {
	if numTapes <= 0 || numObjects <= 0 {
		return 0
	}
	if splitThreshold <= 0 {
		splitThreshold = 1
	}
	if clusterBytes <= splitThreshold {
		return 1
	}
	n := int(clusterBytes / splitThreshold)
	if clusterBytes%splitThreshold != 0 {
		n++
	}
	if n > numTapes {
		n = numTapes
	}
	if n > numObjects {
		n = numObjects
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Zigzag distributes the items of one cluster across tapes following the
// Figure 3 pseudocode: items sorted ascending by load, ndrv candidate
// tapes, and a boustrophedon index walk
// (T1,T2,…,T_{ndrv−1},T_{ndrv−1},…,T1,T0,T0,T1,…) whose repeated endpoints
// keep per-tape counts even over full cycles. The walk is capacity-aware:
// if the zigzag target cannot hold the item, the least-loaded tape with
// room takes it instead.
//
// Two details are pinned down beyond the printed pseudocode, both required
// for the algorithm to actually balance (verified by the package tests):
//
//   - The candidate tapes are the ndrv least-loaded of the batch, indexed
//     ascending by load, so the cycle's tail — which the ascending item
//     order makes the heaviest items — lands on the coldest tape. (Sorting
//     the chosen tapes hottest-first instead makes the rich richer.)
//   - ndrv is capped at ⌊len(items)/2⌋ so the cluster fills at least one
//     full 2·ndrv walk cycle; otherwise T0 is never visited and whichever
//     tape holds that rank starves.
//
// It returns, for each item (in input order), the index into tapes the
// item was assigned to — or −1 when no tape in the batch can hold the item
// (the caller spills such items to another batch) — and updates each
// tape's Load and Free.
func Zigzag(items []Item, tapes []*TapeState, ndrv int) ([]int, error) {
	var p Packer
	return p.Zigzag(items, tapes, ndrv)
}

// ordered pairs an item with its input position so the load sort can break
// ties by input order without a stable algorithm.
type ordered struct {
	item Item
	pos  int
}

// Packer is an allocation-free Zigzag/FirstFit: the sort, ranking, and
// output buffers are reused across calls, so a caller packing many
// clusters (placement's batch loop) pays for them once. Returned slices
// are owned by the Packer and valid until its next call.
type Packer struct {
	ord []ordered
	idx []int
	out []int
}

// Zigzag is the package-level Zigzag on reused buffers; identical results.
func (p *Packer) Zigzag(items []Item, tapes []*TapeState, ndrv int) ([]int, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if len(tapes) == 0 {
		return nil, fmt.Errorf("loadbalance: no tapes")
	}
	if ndrv > len(items)/2 {
		ndrv = len(items) / 2
	}
	if ndrv < 1 {
		ndrv = 1
	}
	if ndrv > len(tapes) {
		ndrv = len(tapes)
	}
	// Sort items ascending by load, remembering input positions. Ties keep
	// input order: (Load, pos) is a total order, so the allocation-free
	// unstable sort reproduces what a stable sort on Load alone would.
	if cap(p.ord) < len(items) {
		p.ord = make([]ordered, len(items))
	}
	ord := p.ord[:len(items)]
	for i, it := range items {
		ord[i] = ordered{item: it, pos: i}
	}
	slices.SortFunc(ord, func(a, b ordered) int {
		if a.item.Load != b.item.Load {
			if a.item.Load < b.item.Load {
				return -1
			}
			return 1
		}
		return a.pos - b.pos
	})

	// Candidate tapes: the ndrv least-loaded, indexed ascending by load,
	// ties by original index for determinism. The zigzag walks this
	// ranking.
	rank := p.leastLoaded(tapes)[:ndrv]

	if cap(p.out) < len(items) {
		p.out = make([]int, len(items))
	}
	out := p.out[:len(items)]
	i, flag := 0, 0
	for _, o := range ord {
		// Figure 3 index walk.
		if flag == 0 {
			i++
		} else {
			i--
		}
		if i == ndrv {
			flag = 1
			i--
		}
		if i == -1 {
			flag = 0
			i++
		}
		target := rank[i]
		if tapes[target].Free < o.item.Size {
			// Capacity fallback: least-loaded tape (any in the batch, not
			// just the ndrv window) that can hold the item. A single linear
			// min-scan selects the same tape the old sorted ranking's first
			// fitting entry did — minimum (Load, index) among tapes with
			// room — without re-sorting the whole batch per fallback item.
			target = leastLoadedWithRoom(tapes, o.item.Size)
			if target < 0 {
				// No tape can hold the item: report it unplaced (-1) and
				// let the caller spill it to another batch.
				out[o.pos] = -1
				continue
			}
		}
		tapes[target].Load += o.item.Load
		tapes[target].Free -= o.item.Size
		out[o.pos] = target
	}
	return out, nil
}

// FirstFit is the ablation baseline: every item goes to the tape with the
// most free space that can hold it, ignoring access-probability load.
// Unplaceable items are reported as −1, like Zigzag.
func FirstFit(items []Item, tapes []*TapeState) ([]int, error) {
	var p Packer
	return p.FirstFit(items, tapes)
}

// FirstFit is the first-fit baseline on the Packer's reused output buffer;
// identical results to the package-level FirstFit.
func (p *Packer) FirstFit(items []Item, tapes []*TapeState) ([]int, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if len(tapes) == 0 {
		return nil, fmt.Errorf("loadbalance: no tapes")
	}
	if cap(p.out) < len(items) {
		p.out = make([]int, len(items))
	}
	out := p.out[:len(items)]
	for k, it := range items {
		best := -1
		for ti, t := range tapes {
			if t.Free < it.Size {
				continue
			}
			if best < 0 || t.Free > tapes[best].Free {
				best = ti
			}
		}
		if best < 0 {
			// Unplaceable here: -1 signals the caller to spill the item.
			out[k] = -1
			continue
		}
		tapes[best].Load += it.Load
		tapes[best].Free -= it.Size
		out[k] = best
	}
	return out, nil
}

// Imbalance returns (maxLoad − minLoad) / meanLoad over the tapes, a
// unitless skew measure used by tests and the ablation report. Zero tapes
// or zero total load yield 0.
func Imbalance(tapes []*TapeState) float64 {
	if len(tapes) == 0 {
		return 0
	}
	minL, maxL, sum := tapes[0].Load, tapes[0].Load, 0.0
	for _, t := range tapes {
		if t.Load < minL {
			minL = t.Load
		}
		if t.Load > maxL {
			maxL = t.Load
		}
		sum += t.Load
	}
	mean := sum / float64(len(tapes))
	if mean == 0 {
		return 0
	}
	return (maxL - minL) / mean
}

// leastLoaded returns the tape indices ordered by (Load, index), in the
// Packer's reused index buffer.
func (p *Packer) leastLoaded(tapes []*TapeState) []int {
	if cap(p.idx) < len(tapes) {
		p.idx = make([]int, len(tapes))
	}
	idx := p.idx[:len(tapes)]
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		ta, tb := tapes[a], tapes[b]
		if ta.Load != tb.Load {
			if ta.Load < tb.Load {
				return -1
			}
			return 1
		}
		return a - b
	})
	return idx
}

// leastLoadedWithRoom returns the index of the tape with the smallest
// (Load, index) among those with at least size bytes free, or −1 if none
// qualifies. Iterating ascending with a strict comparison keeps the lowest
// index on load ties, matching leastLoaded's ranking.
func leastLoadedWithRoom(tapes []*TapeState, size int64) int {
	best := -1
	for i, t := range tapes {
		if t.Free < size {
			continue
		}
		if best < 0 || t.Load < tapes[best].Load {
			best = i
		}
	}
	return best
}
