package placement

import (
	"fmt"
	"slices"

	"paralleltape/internal/cluster"
	"paralleltape/internal/loadbalance"
	"paralleltape/internal/model"
	"paralleltape/internal/tape"
)

// Online is the paper's §7 future-work problem made concrete: "In a real
// system, objects are moved to tapes periodically. When we place objects
// on tapes, we only have the local knowledge of object probability and
// relationship."
//
// Objects arrive in Epochs equal waves (by ID, modeling backup cycles).
// Each wave is placed knowing only the co-access relationships among
// objects that have arrived so far, and nothing already written can move:
//
//   - wave 0 fills the always-mounted batch and initial switch batches
//     exactly like ParallelBatch;
//   - later waves append new switch batches only — a later wave's hot
//     cluster can never displace earlier, colder content from the
//     always-mounted batch, and a request whose objects span waves is
//     split across batches.
//
// Comparing Online{Epochs: k} against the full-knowledge ParallelBatch
// quantifies how much the paper's open problem costs (the "online"
// experiment).
type Online struct {
	// Epochs is the number of arrival waves (1 = full knowledge,
	// identical information to ParallelBatch). Zero means 4.
	Epochs int
	// M and K as in ParallelBatch; clusters split across tapes above
	// DefaultSplitThreshold.
	M int
	K float64
}

// Name implements Scheme.
func (s Online) Name() string { return "online-parallel-batch" }

// Place implements Scheme.
func (s Online) Place(w *model.Workload, hw tape.Hardware) (*Result, error) {
	epochs := s.Epochs
	if epochs == 0 {
		epochs = 4
	}
	if epochs < 1 {
		return nil, fmt.Errorf("placement: online epochs must be >= 1, got %d", epochs)
	}
	m := s.M
	if m == 0 {
		m = 4
	}
	if hw.DrivesPerLib < 2 || m < 1 || m > hw.DrivesPerLib-1 {
		return nil, fmt.Errorf("placement: online switch drives m=%d invalid for %d drives", m, hw.DrivesPerLib)
	}
	k := s.K
	if k == 0 {
		k = DefaultK
	}
	if err := checkFits(w, hw, k); err != nil {
		return nil, err
	}
	n := hw.Libraries
	dm := hw.DrivesPerLib - m
	cap1 := int64(k * float64(n*dm) * float64(hw.Capacity))
	capLater := int64(k * float64(n*m) * float64(hw.Capacity))

	probs := w.ObjectProbs()
	b := newBuilder(w, hw, probs)
	var as allocScratch

	waveSize := (w.NumObjects() + epochs - 1) / epochs
	// Switch batches persist across waves: a new wave first appends to the
	// partially-filled batch left open by the previous wave (real backup
	// systems append to open media) before cutting fresh batches.
	nextBatch := 0 // next switch-batch index to open (1-based after batch 0)
	var openKeys []tape.Key
	var openBudget int64
	openFresh := func() error {
		nextBatch++
		keys, err := batchKeys(nextBatch, m, dm, hw)
		if err != nil {
			return fmt.Errorf("placement: online waves exhaust the %d-cartridge system: %w",
				hw.TotalTapes(), err)
		}
		openKeys = keys
		openBudget = capLater
		return nil
	}
	sublistBytes := func(sub []unit) int64 {
		var total int64
		for _, u := range sub {
			total += u.bytes
		}
		return total
	}
	firstWave := true
	for start := 0; start < w.NumObjects(); start += waveSize {
		end := start + waveSize
		if end > w.NumObjects() {
			end = w.NumObjects()
		}
		units, err := waveUnits(w, probs, start, end)
		if err != nil {
			return nil, err
		}
		// The wave's first sublist fills the always-mounted batch (wave 0)
		// or the remaining space of the open switch batch.
		var c1 int64
		if firstWave {
			c1 = cap1
		} else {
			if openBudget <= 0 {
				if err := openFresh(); err != nil {
					return nil, err
				}
			}
			c1 = openBudget
		}
		sublists, err := cutSublists(units, c1, capLater, w)
		if err != nil {
			return nil, err
		}
		for si, sub := range sublists {
			var keys []tape.Key
			switch {
			case firstWave && si == 0:
				if keys, err = batchKeys(0, m, dm, hw); err != nil {
					return nil, err
				}
			case !firstWave && si == 0:
				keys = openKeys
				openBudget -= sublistBytes(sub)
			default:
				if err := openFresh(); err != nil {
					return nil, err
				}
				keys = openKeys
				openBudget -= sublistBytes(sub)
			}
			carry, err := allocateSublist(b, w, probs, sub, keys, DefaultSplitThreshold, false, &as)
			if err != nil {
				return nil, err
			}
			// Units that did not fit roll into fresh batches immediately.
			for len(carry) > 0 {
				if err := openFresh(); err != nil {
					return nil, err
				}
				next, err := allocateSublist(b, w, probs, carry, openKeys, DefaultSplitThreshold, false, &as)
				if err != nil {
					return nil, err
				}
				if len(next) == len(carry) {
					return nil, fmt.Errorf("placement: unit of %d objects fits no fresh batch", len(next[0].objects))
				}
				openBudget = 0 // conservatively treat the batch as consumed
				carry = next
			}
		}
		firstWave = false
	}

	align := func(key tape.Key) Alignment {
		if key.Index < dm {
			return AlignOrganPipe
		}
		return AlignBOTDescending
	}
	cat, tapeProb, err := b.finish(align)
	if err != nil {
		return nil, err
	}

	mounts := make([][]int, n)
	pinned := make([][]bool, n)
	for lib := 0; lib < n; lib++ {
		mounts[lib] = make([]int, hw.DrivesPerLib)
		pinned[lib] = make([]bool, hw.DrivesPerLib)
		for d := 0; d < hw.DrivesPerLib; d++ {
			ti := d
			if d < dm {
				pinned[lib][d] = true
			}
			if b.has(tape.Key{Library: lib, Index: ti}) {
				mounts[lib][d] = ti
			} else {
				mounts[lib][d] = -1
				pinned[lib][d] = false
			}
		}
	}

	return &Result{
		Scheme:        s.Name(),
		Catalog:       cat,
		InitialMounts: mounts,
		Pinned:        pinned,
		TapeProb:      tapeProb,
		TapesUsed:     b.numTapes(),
	}, nil
}

// waveUnits clusters the objects of one arrival wave using only the
// co-access structure visible within the wave (requests restricted to wave
// members), ordered by probability density.
func waveUnits(w *model.Workload, probs []float64, start, end int) ([]unit, error) {
	inWave := func(id model.ObjectID) bool { return int(id) >= start && int(id) < end }
	view := &model.Workload{Objects: w.Objects}
	for i := range w.Requests {
		r := &w.Requests[i]
		var members []model.ObjectID
		for _, id := range r.Objects {
			if inWave(id) {
				members = append(members, id)
			}
		}
		if len(members) > 0 {
			view.Requests = append(view.Requests, model.Request{
				ID:      model.RequestID(len(view.Requests)),
				Prob:    r.Prob,
				Objects: members,
			})
		}
	}
	var units []unit
	if len(view.Requests) > 0 {
		res, err := cluster.Run(view, cluster.DefaultConfig())
		if err != nil {
			return nil, err
		}
		for _, c := range res.Clusters {
			u := unit{objects: c.Objects, bytes: c.Bytes}
			for _, id := range c.Objects {
				u.probMass += probs[id]
			}
			units = append(units, u)
		}
		for _, id := range res.Unreferenced {
			if inWave(id) {
				units = append(units, unit{
					objects:  []model.ObjectID{id},
					bytes:    w.Objects[id].Size,
					probMass: probs[id],
				})
			}
		}
	} else {
		for i := start; i < end; i++ {
			id := model.ObjectID(i)
			units = append(units, unit{
				objects:  []model.ObjectID{id},
				bytes:    w.Objects[id].Size,
				probMass: probs[id],
			})
		}
	}
	sortUnitsByDensity(units)
	return units, nil
}

// sortUnitsByDensity orders units by decreasing probability density with
// deterministic ties.
func sortUnitsByDensity(units []unit) {
	sortSliceStable(units, func(a, b unit) bool {
		da, db := a.density(), b.density()
		if da != db {
			return da > db
		}
		return a.objects[0] < b.objects[0]
	})
}

// allocScratch holds the buffers allocateSublist reuses across calls: the
// tape-state arrays, the unit ordering, the balancer item list, and the
// balancer's own Packer. A placement run threads one scratch through every
// sublist it allocates, so the per-sublist cost is a handful of slice
// reslices rather than five allocations.
type allocScratch struct {
	packer loadbalance.Packer
	states []loadbalance.TapeState
	ptrs   []*loadbalance.TapeState
	order  []int
	items  []loadbalance.Item
}

// allocateSublist spreads one sublist's units over the batch keys with the
// zigzag balancer (or first-fit when firstFit is set), hottest units
// first. Units whose largest object cannot fit any tape of the batch
// (large objects on small cartridges leave bin-packing slack short) are
// returned as deferred so the caller can carry them into the next batch.
func allocateSublist(b *builder, w *model.Workload, probs []float64,
	sub []unit, keys []tape.Key, split int64, firstFit bool, as *allocScratch) ([]unit, error) {
	// One backing array for the tape states instead of len(keys) separate
	// allocations; the pointer slice view is what the balancer mutates.
	if cap(as.states) < len(keys) {
		as.states = make([]loadbalance.TapeState, len(keys))
		as.ptrs = make([]*loadbalance.TapeState, len(keys))
	}
	stateArr := as.states[:len(keys)]
	states := as.ptrs[:len(keys)]
	for i, key := range keys {
		stateArr[i] = loadbalance.TapeState{Free: b.free(key)}
		states[i] = &stateArr[i]
	}
	if cap(as.order) < len(sub) {
		as.order = make([]int, len(sub))
	}
	order := as.order[:len(sub)]
	for i := range order {
		order[i] = i
	}
	sortSliceStable(order, func(x, y int) bool {
		ux, uy := sub[x], sub[y]
		if ux.probMass != uy.probMass {
			return ux.probMass > uy.probMass
		}
		return ux.objects[0] < uy.objects[0]
	})
	// items is sized once to the sublist's widest unit and reused for every
	// unit, instead of a fresh slice per unit.
	maxObjs := 0
	for i := range sub {
		if n := len(sub[i].objects); n > maxObjs {
			maxObjs = n
		}
	}
	if cap(as.items) < maxObjs {
		as.items = make([]loadbalance.Item, maxObjs)
	}
	var deferred []unit
	for _, ui := range order {
		u := sub[ui]
		// Feasibility: every object of the unit must fit somewhere given
		// the batch's current free space, assuming the largest objects go
		// to the freest tapes.
		if !unitFeasible(w, u, states) {
			deferred = append(deferred, u)
			continue
		}
		items := as.items[:len(u.objects)]
		for i, id := range u.objects {
			items[i] = loadbalance.Item{
				Load: probs[id] * float64(w.Objects[id].Size),
				Size: w.Objects[id].Size,
			}
		}
		var asg []int
		var err error
		if firstFit {
			asg, err = as.packer.FirstFit(items, states)
		} else {
			ndrv := loadbalance.ChooseSpread(u.bytes, len(u.objects), len(keys), split)
			asg, err = as.packer.Zigzag(items, states, ndrv)
		}
		if err != nil {
			return nil, err
		}
		// Items the balancer reported as unplaceable (-1) spill to the
		// next batch as a residual unit.
		var spill unit
		for i, ti := range asg {
			if ti < 0 {
				id := u.objects[i]
				spill.objects = append(spill.objects, id)
				spill.bytes += w.Objects[id].Size
				spill.probMass += probs[id]
				continue
			}
			if err := b.add(keys[ti], u.objects[i]); err != nil {
				return nil, err
			}
		}
		if len(spill.objects) > 0 {
			deferred = append(deferred, spill)
		}
	}
	return deferred, nil
}

// unitFeasible conservatively checks that the unit's objects can be packed
// into the batch's free space: total bytes fit, and the single largest
// object fits the freest tape.
func unitFeasible(w *model.Workload, u unit, states []*loadbalance.TapeState) bool {
	var freeTotal, freeMax int64
	for _, st := range states {
		freeTotal += st.Free
		if st.Free > freeMax {
			freeMax = st.Free
		}
	}
	if u.bytes > freeTotal {
		return false
	}
	var largest int64
	for _, id := range u.objects {
		if s := w.Objects[id].Size; s > largest {
			largest = s
		}
	}
	return largest <= freeMax
}

// sortSliceStable adapts a less-style comparator to slices.SortStableFunc,
// which — unlike sort.SliceStable — sorts through the concrete element type
// with no reflection and no allocation.
func sortSliceStable[T any](s []T, less func(a, b T) bool) {
	slices.SortStableFunc(s, func(a, b T) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
}
