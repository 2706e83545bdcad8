// Package placement implements the paper's object placement schemes:
//
//   - ParallelBatch — the paper's contribution (§5): density-sorted
//     sublists matched to tape batches, cluster-preserving refinement,
//     zigzag load balancing, organ-pipe alignment, and a pinned/switch
//     drive split per library.
//   - ObjectProbability — the [11] baseline: rank-dealt placement by
//     independent object probability with organ-pipe alignment and
//     least-popular replacement.
//   - ClusterProbability — the [20] baseline: one co-access cluster per
//     tape to minimize switches, no transfer parallelism.
//   - RoundRobin — an extension baseline that stripes objects across all
//     tapes with no popularity or relationship awareness, isolating the
//     value of the paper's heuristics.
//   - Online — the §7 future-work variant: requests arrive in epochs and
//     each epoch is placed with only the knowledge accumulated so far.
//
// Every scheme consumes a model.Workload plus a tape.Hardware and produces
// a Result: a fully indexed catalog plus the mount policy (which tapes the
// drives hold at startup, which drives are pinned, and each tape's
// accumulated probability for least-popular replacement).
package placement

import (
	"cmp"
	"fmt"
	"slices"

	"paralleltape/internal/catalog"
	"paralleltape/internal/model"
	"paralleltape/internal/organpipe"
	"paralleltape/internal/tape"
)

// DefaultK is the default tape capacity utilization coefficient k (§5.3
// step 3, k < 1): tapes are filled to this fraction so refinements have
// slack.
const DefaultK = 0.9

// Result is a finished placement.
type Result struct {
	Scheme  string
	Catalog *catalog.Catalog
	// InitialMounts[lib][drive] is the library-local tape index mounted at
	// startup, or -1 for an empty drive.
	InitialMounts [][]int
	// Pinned[lib][drive] marks drives whose tape is never switched (the
	// paper's always-mounted batch). Baselines leave all drives false.
	Pinned [][]bool
	// TapeProb accumulates object probability per cartridge; the
	// least-popular replacement policy consults it.
	TapeProb map[tape.Key]float64
	// TapesUsed counts non-empty cartridges.
	TapesUsed int
}

// Scheme places a workload onto a tape-library system.
type Scheme interface {
	Name() string
	Place(w *model.Workload, hw tape.Hardware) (*Result, error)
}

// Validate checks the structural soundness of a placement against the
// workload and hardware: complete single-copy coverage, geometry, and
// mount-table shape.
func (r *Result) Validate(w *model.Workload, hw tape.Hardware) error {
	if r.Catalog == nil {
		return fmt.Errorf("placement: %s produced no catalog", r.Scheme)
	}
	if err := r.Catalog.Validate(w, hw); err != nil {
		return fmt.Errorf("placement %s: %w", r.Scheme, err)
	}
	if len(r.InitialMounts) != hw.Libraries || len(r.Pinned) != hw.Libraries {
		return fmt.Errorf("placement %s: mount tables sized %d/%d, want %d libraries",
			r.Scheme, len(r.InitialMounts), len(r.Pinned), hw.Libraries)
	}
	for lib := 0; lib < hw.Libraries; lib++ {
		if len(r.InitialMounts[lib]) != hw.DrivesPerLib || len(r.Pinned[lib]) != hw.DrivesPerLib {
			return fmt.Errorf("placement %s: library %d mount tables sized %d/%d, want %d drives",
				r.Scheme, lib, len(r.InitialMounts[lib]), len(r.Pinned[lib]), hw.DrivesPerLib)
		}
		seen := make(map[int]bool)
		for d, ti := range r.InitialMounts[lib] {
			if ti == -1 {
				if r.Pinned[lib][d] {
					return fmt.Errorf("placement %s: library %d drive %d pinned but empty", r.Scheme, lib, d)
				}
				continue
			}
			if ti < 0 || ti >= hw.TapesPerLib {
				return fmt.Errorf("placement %s: library %d drive %d mounts tape %d out of range",
					r.Scheme, lib, d, ti)
			}
			if seen[ti] {
				return fmt.Errorf("placement %s: library %d mounts tape %d on two drives", r.Scheme, lib, ti)
			}
			seen[ti] = true
		}
	}
	return nil
}

// builderTape is one opened cartridge inside a builder: its identity, the
// objects in insertion order, and the bytes written so far.
type builderTape struct {
	key  tape.Key
	ids  []model.ObjectID
	used int64
}

// builder accumulates per-tape object lists and finalizes them into
// organ-pipe-aligned layouts registered in a catalog. Cartridges live in a
// flat slice in creation order, addressed through a dense
// library×slot index — no map operations on the add hot path.
type builder struct {
	w       *model.Workload
	hw      tape.Hardware
	probs   []float64 // per-object probability
	tapeIdx []int32   // dense key index → slot in tapes, -1 when unopened
	tapes   []builderTape
}

// newBuilder wraps a workload for placement; probs must be w.ObjectProbs()
// (passed in so schemes that already computed it don't pay twice).
func newBuilder(w *model.Workload, hw tape.Hardware, probs []float64) *builder {
	idx := make([]int32, hw.TotalTapes())
	for i := range idx {
		idx[i] = -1
	}
	return &builder{w: w, hw: hw, probs: probs, tapeIdx: idx}
}

func (b *builder) slot(k tape.Key) int {
	return k.Library*b.hw.TapesPerLib + k.Index
}

// add places one object on a cartridge, enforcing the physical capacity.
// A cartridge is opened (joins the creation order) only by a successful
// first add.
func (b *builder) add(k tape.Key, id model.ObjectID) error {
	size := b.w.Objects[id].Size
	si := b.slot(k)
	ti := b.tapeIdx[si]
	var used int64
	if ti >= 0 {
		used = b.tapes[ti].used
	}
	if used+size > b.hw.Capacity {
		return fmt.Errorf("placement: object %d (%d bytes) overflows %s", id, size, k)
	}
	if ti < 0 {
		ti = int32(len(b.tapes))
		b.tapeIdx[si] = ti
		b.tapes = append(b.tapes, builderTape{key: k})
	}
	t := &b.tapes[ti]
	t.ids = append(t.ids, id)
	t.used += size
	return nil
}

// free returns the remaining physical capacity on a cartridge.
func (b *builder) free(k tape.Key) int64 {
	if ti := b.tapeIdx[b.slot(k)]; ti >= 0 {
		return b.hw.Capacity - b.tapes[ti].used
	}
	return b.hw.Capacity
}

// has reports whether the cartridge holds at least one object.
func (b *builder) has(k tape.Key) bool {
	return b.tapeIdx[b.slot(k)] >= 0
}

// numTapes returns the number of opened cartridges.
func (b *builder) numTapes() int { return len(b.tapes) }

// Alignment selects how objects are ordered along one cartridge.
type Alignment int

const (
	// AlignOrganPipe is [11]'s arrangement for tapes whose head rests
	// mid-tape between accesses: hottest object central, popularity
	// falling towards both ends.
	AlignOrganPipe Alignment = iota
	// AlignBOTDescending is [11]'s arrangement for tapes that are always
	// (re)mounted with the head at the beginning of tape: popularity
	// descending from BOT, so fresh mounts seek little and rewinds from
	// the hot region are short.
	AlignBOTDescending
	// AlignInsertion keeps the insertion order (ablation baseline).
	AlignInsertion
)

// finish aligns each cartridge according to align(key) (§5.3 step 6) and
// builds the catalog plus the per-tape probability table.
func (b *builder) finish(align func(tape.Key) Alignment) (*catalog.Catalog, map[tape.Key]float64, error) {
	cat := catalog.New(b.w.NumObjects())
	tapeProb := make(map[tape.Key]float64, len(b.tapes))
	var sc alignScratch
	var order []model.ObjectID
	for i := range b.tapes {
		t := &b.tapes[i]
		order = slices.Grow(order[:0], len(t.ids))[:len(t.ids)]
		prob := b.alignTape(&sc, i, order, align)
		l := tape.NewLayoutWithCapacity(t.key, len(t.ids))
		for _, id := range order {
			if _, err := l.Append(id, b.w.Objects[id].Size, b.hw.Capacity); err != nil {
				return nil, nil, err
			}
		}
		if err := cat.AddLayout(l); err != nil {
			return nil, nil, err
		}
		tapeProb[t.key] = prob
	}
	return cat, tapeProb, nil
}

// alignScratch holds finish's reusable alignment buffers.
type alignScratch struct {
	arr   organpipe.Arranger
	items []organpipe.Item
}

// alignTape writes tape i's aligned object order into dst and returns the
// tape's accumulated probability (summed in the aligned order, exactly as
// the pre-rework finish did inside its append loop).
func (b *builder) alignTape(wk *alignScratch, i int, dst []model.ObjectID, align func(tape.Key) Alignment) float64 {
	t := &b.tapes[i]
	switch align(t.key) {
	case AlignOrganPipe:
		if cap(wk.items) < len(t.ids) {
			wk.items = make([]organpipe.Item, len(t.ids))
		}
		items := wk.items[:len(t.ids)]
		for j, id := range t.ids {
			items[j] = organpipe.Item{Index: j, Weight: b.probs[id]}
		}
		for j, it := range wk.arr.Arrange(items) {
			dst[j] = t.ids[it.Index]
		}
	case AlignBOTDescending:
		copy(dst, t.ids)
		slices.SortStableFunc(dst, func(x, y model.ObjectID) int {
			px, py := b.probs[x], b.probs[y]
			if px != py {
				return cmp.Compare(py, px)
			}
			return cmp.Compare(x, y)
		})
	default: // AlignInsertion keeps insertion order
		copy(dst, t.ids)
	}
	var prob float64
	for _, id := range dst {
		prob += b.probs[id]
	}
	return prob
}

// alignAll returns an alignment function applying one mode everywhere.
func alignAll(a Alignment) func(tape.Key) Alignment {
	return func(tape.Key) Alignment { return a }
}

// roundRobinKey maps a global tape rank to a cartridge, spreading ranks
// across libraries (rank r → library r mod n, slot r div n) so hot tapes
// are mountable in parallel.
func roundRobinKey(rank int, hw tape.Hardware) (tape.Key, error) {
	k := tape.Key{Library: rank % hw.Libraries, Index: rank / hw.Libraries}
	if k.Index >= hw.TapesPerLib {
		return tape.Key{}, fmt.Errorf("placement: rank %d exceeds the %d-cartridge system", rank, hw.TotalTapes())
	}
	return k, nil
}

// hottestMounts builds the baseline mount table: each library mounts its d
// highest-probability cartridges, no drive pinned.
func hottestMounts(hw tape.Hardware, tapeProb map[tape.Key]float64) ([][]int, [][]bool) {
	mounts := make([][]int, hw.Libraries)
	pinned := make([][]bool, hw.Libraries)
	for lib := 0; lib < hw.Libraries; lib++ {
		type tp struct {
			idx  int
			prob float64
		}
		var cands []tp
		for k, p := range tapeProb {
			if k.Library == lib {
				cands = append(cands, tp{idx: k.Index, prob: p})
			}
		}
		// idx is unique within a library, so (prob desc, idx) is a total
		// order and the unstable sort is safe.
		slices.SortFunc(cands, func(a, b tp) int {
			if a.prob != b.prob {
				return cmp.Compare(b.prob, a.prob)
			}
			return cmp.Compare(a.idx, b.idx)
		})
		mounts[lib] = make([]int, hw.DrivesPerLib)
		pinned[lib] = make([]bool, hw.DrivesPerLib)
		for d := 0; d < hw.DrivesPerLib; d++ {
			if d < len(cands) {
				mounts[lib][d] = cands[d].idx
			} else {
				mounts[lib][d] = -1
			}
		}
	}
	return mounts, pinned
}

// densityOrder returns object IDs sorted by decreasing probability density
// P(O)/size(O) (§5.3 step 2), ties broken by ID.
func densityOrder(w *model.Workload, probs []float64) []model.ObjectID {
	ids := make([]model.ObjectID, w.NumObjects())
	for i := range ids {
		ids[i] = model.ObjectID(i)
	}
	sortSliceStable(ids, func(a, b model.ObjectID) bool {
		da := probs[a] / float64(w.Objects[a].Size)
		db := probs[b] / float64(w.Objects[b].Size)
		if da != db {
			return da > db
		}
		return a < b
	})
	return ids
}

// probOrder returns object IDs sorted by decreasing probability (the [11]
// baseline sorts by raw probability, not density), ties broken by ID.
func probOrder(w *model.Workload, probs []float64) []model.ObjectID {
	ids := make([]model.ObjectID, w.NumObjects())
	for i := range ids {
		ids[i] = model.ObjectID(i)
	}
	sortSliceStable(ids, func(a, b model.ObjectID) bool {
		if probs[a] != probs[b] {
			return probs[a] > probs[b]
		}
		return a < b
	})
	return ids
}

// checkFits verifies the workload fits the system at utilization k.
func checkFits(w *model.Workload, hw tape.Hardware, k float64) error {
	if k <= 0 || k > 1 {
		return fmt.Errorf("placement: utilization coefficient k=%v outside (0,1]", k)
	}
	budget := int64(float64(hw.TotalCapacity()) * k)
	if total := w.TotalObjectBytes(); total > budget {
		return fmt.Errorf("placement: workload (%d bytes) exceeds k-scaled capacity (%d bytes)", total, budget)
	}
	for i := range w.Objects {
		if w.Objects[i].Size > hw.Capacity {
			return fmt.Errorf("placement: object %d (%d bytes) larger than a cartridge", i, w.Objects[i].Size)
		}
	}
	return nil
}
