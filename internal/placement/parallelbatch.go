package placement

import (
	"fmt"

	"paralleltape/internal/cluster"
	"paralleltape/internal/model"
	"paralleltape/internal/tape"
	"paralleltape/internal/units"
)

// ParallelBatch is the paper's contribution (§5): tape batches spanning all
// libraries, an always-mounted batch of n×(d−m) drives plus m switch drives
// per library, density-sorted sublists refined to keep co-access clusters
// within one batch, zigzag load balancing within a batch, and organ-pipe
// alignment within each tape.
type ParallelBatch struct {
	// M is the number of switch drives per library, 1 ≤ M ≤ d−1 (§5: the
	// always-mounted batch keeps d−M drives loaded forever). Zero means
	// the paper's simulation default of 4.
	M int
	// K is the tape capacity utilization coefficient (§5.3 step 3); zero
	// means DefaultK.
	K float64
	// Clustering configures §5.1; the zero value means
	// cluster.DefaultConfig().
	Clustering cluster.Config
	// Precomputed, if non-nil, supplies a clustering result computed for
	// exactly this workload, skipping the internal cluster.Run call.
	Precomputed *cluster.Result
	// SplitThreshold is the cluster size (bytes) above which a cluster is
	// split across multiple tapes for transfer parallelism (§5.3 step 5).
	// Zero means DefaultSplitThreshold.
	SplitThreshold int64

	// Ablation switches (all default off = full scheme).
	NoRefine        bool // skip cluster refinement: cut sublists purely by object density
	NoOrganPipe     bool // keep insertion order instead of organ-pipe alignment
	FirstFitBalance bool // replace the Figure 3 zigzag with space-driven first-fit
	// WideHotBatch sizes the first sublist to every startup-mounted tape
	// (batch 1 plus batch 2, k·n·d·C_t; §5.2 mounts both at startup),
	// letting the hottest clusters transfer at full n×d width at the cost
	// of the m-trade-off the paper's Figure 5 studies. The default is the
	// literal §5.3 step 3 sizing, k·n·(d−m)·C_t.
	WideHotBatch bool

	// Parallel is ignored: placement always runs on the calling goroutine.
	//
	// Deprecated: the parallel edge aggregation and per-tape alignment it
	// selected were removed (together about 2% of a placement). The field
	// stays so existing callers keep compiling.
	Parallel bool
}

// DefaultSplitThreshold is the cluster size above which splitting across
// tapes pays: at 80 MB/s a switch-sized chunk (~102 s average switch)
// transfers ~8 GB, so clusters below that ride one tape (§5.3 step 5:
// "simply putting them on the same tape does not change data transfer time
// a lot but reduces tape switch time").
const DefaultSplitThreshold = 8 * units.GB

// Name implements Scheme.
func (s ParallelBatch) Name() string { return "parallel-batch" }

// unit is one indivisible allocation group: a refined cluster or a
// singleton cold object.
type unit struct {
	objects  []model.ObjectID
	bytes    int64
	probMass float64 // Σ P(O) over members (object-probability mass)
}

func (u unit) density() float64 {
	if u.bytes == 0 {
		return 0
	}
	return u.probMass / float64(u.bytes)
}

// Place implements Scheme.
func (s ParallelBatch) Place(w *model.Workload, hw tape.Hardware) (*Result, error) {
	m := s.M
	if m == 0 {
		m = 4
	}
	if hw.DrivesPerLib < 2 {
		return nil, fmt.Errorf("placement: parallel batch needs at least 2 drives per library, have %d", hw.DrivesPerLib)
	}
	if m < 1 || m > hw.DrivesPerLib-1 {
		return nil, fmt.Errorf("placement: switch drives m=%d outside [1,%d]", m, hw.DrivesPerLib-1)
	}
	k := s.K
	if k == 0 {
		k = DefaultK
	}
	if err := checkFits(w, hw, k); err != nil {
		return nil, err
	}
	split := s.SplitThreshold
	if split == 0 {
		split = DefaultSplitThreshold
	}

	probs := w.ObjectProbs()
	unitsList, err := s.buildUnits(w, probs)
	if err != nil {
		return nil, err
	}

	// §5.3 steps 2–4: order units by probability density and cut into
	// sublists sized to the tape batches. Operating at unit (cluster)
	// granularity realizes step 4's refinement — objects with a strong
	// relationship stay in one sublist — while the density ordering keeps
	// the batch probabilities skewed (batch₁ ≥ batch₂ ≥ …).
	sortUnitsByDensity(unitsList)

	n := hw.Libraries
	hotTapesPerLib := hw.DrivesPerLib - m // literal §5.3: batch 1 only
	if s.WideHotBatch {
		hotTapesPerLib = hw.DrivesPerLib // batches 1+2 (all startup-mounted)
	}
	cap1 := int64(k * float64(n*hotTapesPerLib) * float64(hw.Capacity))
	capLater := int64(k * float64(n*m) * float64(hw.Capacity))

	sublists, err := cutSublists(unitsList, cap1, capLater, w)
	if err != nil {
		return nil, err
	}

	// §5.3 step 5 + §5.4: allocate each sublist onto its tape batch with
	// the greedy zigzag balancer. Units that cannot fit a batch's
	// remaining space (large objects on small cartridges) carry over to
	// the next batch.
	b := newBuilder(w, hw, probs)
	var as allocScratch
	tapesUsed := 0
	var carry []unit
	bi := 0
	for si := 0; si < len(sublists) || len(carry) > 0; si++ {
		var sub []unit
		if si < len(sublists) {
			sub = append(carry, sublists[si]...)
		} else {
			sub = carry
		}
		carry = nil
		keys, err := batchKeys(bi, m, hotTapesPerLib, hw)
		if err != nil {
			return nil, fmt.Errorf("placement: workload needs more tape batches than the %d-cartridge system holds: %w",
				hw.TotalTapes(), err)
		}
		bi++
		// Allocate hot units first so the balancer spreads them widest.
		deferred, err := allocateSublist(b, w, probs, sub, keys, split, s.FirstFitBalance, &as)
		if err != nil {
			return nil, fmt.Errorf("placement: batch %d: %w", bi-1, err)
		}
		if si >= len(sublists) && len(deferred) == len(sub) {
			return nil, fmt.Errorf("placement: %d units fit no fresh batch (objects too large for %s cartridges)",
				len(deferred), units.FormatBytesSI(hw.Capacity))
		}
		carry = deferred
		tapesUsed += len(keys)
	}

	// §5.3 step 6: seek-minimizing alignment per [11], which prescribes
	// different arrangements by rewind position. Batch-1 tapes stay
	// mounted with the head resting mid-tape → organ-pipe; switch-batch
	// tapes always (re)mount with the head at BOT → popularity descending
	// from BOT, which also keeps their rewinds short because the hot
	// region sits near the hub.
	dmTapes := hw.DrivesPerLib - m
	align := func(key tape.Key) Alignment {
		if s.NoOrganPipe {
			return AlignInsertion
		}
		if key.Index < dmTapes {
			return AlignOrganPipe
		}
		return AlignBOTDescending
	}
	cat, tapeProb, err := b.finish(align)
	if err != nil {
		return nil, err
	}

	// Mount tables: per library, drives 0..d−m−1 pin the batch-1 tapes,
	// drives d−m..d−1 start with the batch-2 tapes (if any).
	mounts := make([][]int, n)
	pinned := make([][]bool, n)
	dm := hw.DrivesPerLib - m
	for lib := 0; lib < n; lib++ {
		mounts[lib] = make([]int, hw.DrivesPerLib)
		pinned[lib] = make([]bool, hw.DrivesPerLib)
		for d := 0; d < hw.DrivesPerLib; d++ {
			var ti int
			if d < dm {
				ti = d // batch-1 slot
				pinned[lib][d] = true
			} else {
				ti = dm + (d - dm) // batch-2 slot
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
		TapesUsed:     tapesUsed,
	}, nil
}

// buildUnits derives the allocation units: refined clusters (the default)
// or per-object singletons (NoRefine ablation). Unreferenced objects are
// always singleton units with zero probability mass.
func (s ParallelBatch) buildUnits(w *model.Workload, probs []float64) ([]unit, error) {
	if s.NoRefine {
		// One ID arena for every singleton instead of a one-element slice
		// allocation per object.
		all := make([]model.ObjectID, w.NumObjects())
		out := make([]unit, w.NumObjects())
		for i := range out {
			all[i] = model.ObjectID(i)
			out[i] = unit{
				objects:  all[i : i+1 : i+1],
				bytes:    w.Objects[i].Size,
				probMass: probs[i],
			}
		}
		return out, nil
	}
	res := s.Precomputed
	if res == nil {
		var err error
		if res, err = cluster.Run(w, s.Clustering); err != nil {
			return nil, err
		}
	}
	out := make([]unit, 0, len(res.Clusters)+len(res.Unreferenced))
	for _, c := range res.Clusters {
		u := unit{objects: c.Objects, bytes: c.Bytes}
		for _, id := range c.Objects {
			u.probMass += probs[id]
		}
		out = append(out, u)
	}
	for i, id := range res.Unreferenced {
		// Singletons subslice the result's own Unreferenced list — no
		// per-object allocation.
		out = append(out, unit{
			objects:  res.Unreferenced[i : i+1 : i+1],
			bytes:    w.Objects[id].Size,
			probMass: probs[id],
		})
	}
	return out, nil
}

// cutSublists fills sublist 0 up to cap1 and later sublists up to capLater
// with whole units in the given order; a unit larger than a whole sublist
// spills across sublists at object granularity (clusters wider than a
// batch are split regardless — §5.3 step 5).
func cutSublists(unitsList []unit, cap1, capLater int64, w *model.Workload) ([][]unit, error) {
	if cap1 <= 0 || capLater <= 0 {
		return nil, fmt.Errorf("placement: non-positive batch capacity")
	}
	var sublists [][]unit
	var cur []unit
	capacity := cap1
	budget := cap1
	closeSublist := func() {
		sublists = append(sublists, cur)
		cur = nil
		capacity = capLater
		budget = capLater
	}
	for _, u := range unitsList {
		if u.bytes <= budget {
			cur = append(cur, u)
			budget -= u.bytes
			continue
		}
		if u.bytes <= capacity && float64(budget) < 0.5*float64(capacity) {
			// The unit would fit a fresh sublist and this one is mostly
			// full: close it rather than fragment the cluster.
			closeSublist()
			cur = append(cur, u)
			budget -= u.bytes
			continue
		}
		// Fragment the unit at object granularity across sublists.
		part := unit{}
		for _, id := range u.objects {
			size := w.Objects[id].Size
			if size > budget {
				if len(part.objects) > 0 {
					cur = append(cur, part)
					part = unit{}
				}
				closeSublist()
			}
			part.objects = append(part.objects, id)
			part.bytes += size
			part.probMass += 0 // mass is only used for intra-batch ordering; fragments inherit none
			budget -= size
		}
		if len(part.objects) > 0 {
			cur = append(cur, part)
		}
	}
	if len(cur) > 0 {
		sublists = append(sublists, cur)
	}
	if len(sublists) == 0 {
		sublists = [][]unit{nil}
	}
	return sublists, nil
}

// batchKeys returns the cartridge keys of batch bi: batch 0 holds the hot
// tapes (hotTapesPerLib per library, slots 0..hot−1), batches 1.. hold m
// per library after them.
func batchKeys(bi, m, hotTapesPerLib int, hw tape.Hardware) ([]tape.Key, error) {
	var keys []tape.Key
	for lib := 0; lib < hw.Libraries; lib++ {
		if bi == 0 {
			for t := 0; t < hotTapesPerLib; t++ {
				keys = append(keys, tape.Key{Library: lib, Index: t})
			}
		} else {
			base := hotTapesPerLib + (bi-1)*m
			for t := base; t < base+m; t++ {
				if t >= hw.TapesPerLib {
					return nil, fmt.Errorf("batch %d needs tape slot %d of %d", bi, t, hw.TapesPerLib)
				}
				keys = append(keys, tape.Key{Library: lib, Index: t})
			}
		}
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("batch %d is empty (m=%d, d=%d)", bi, m, hw.DrivesPerLib)
	}
	return keys, nil
}
