package placement

import (
	"fmt"
	"io"
	"sort"

	"paralleltape/internal/catalog"
	"paralleltape/internal/model"
	"paralleltape/internal/tape"
	"paralleltape/internal/units"
)

// Description summarizes the structure of a finished placement: how full
// and how hot each cartridge is, how skewed probability is across the
// mount order, and how well requests stay together.
type Description struct {
	Scheme    string
	TapesUsed int

	// Fill statistics over used cartridges (bytes).
	FillMin, FillMax, FillMean int64

	// Probability skew: share of total access probability held by the
	// initially mounted tapes, and the Gini coefficient over per-tape
	// probabilities (0 = uniform, →1 = concentrated).
	MountedProbShare float64
	ProbGini         float64

	// Request locality: popularity-weighted mean number of cartridges a
	// predefined request touches, and the mean share of its bytes on
	// initially mounted cartridges.
	MeanTapesPerRequest  float64
	MountedBytesShare    float64
	MaxTapesOfAnyRequest int
}

// Describe computes placement diagnostics against its workload.
func Describe(res *Result, w *model.Workload, hw tape.Hardware) (*Description, error) {
	if res == nil || res.Catalog == nil {
		return nil, fmt.Errorf("placement: nil result")
	}
	d := &Description{Scheme: res.Scheme, TapesUsed: res.TapesUsed}

	// Fill stats.
	keys := res.Catalog.Tapes()
	if len(keys) == 0 {
		return nil, fmt.Errorf("placement: empty catalog")
	}
	d.FillMin = int64(1) << 62
	var fillSum int64
	for _, k := range keys {
		l, _ := res.Catalog.Layout(k)
		used := l.Used()
		if used < d.FillMin {
			d.FillMin = used
		}
		if used > d.FillMax {
			d.FillMax = used
		}
		fillSum += used
	}
	d.FillMean = fillSum / int64(len(keys))

	// Probability skew.
	mounted := make(map[tape.Key]bool)
	for lib := range res.InitialMounts {
		for _, ti := range res.InitialMounts[lib] {
			if ti >= 0 {
				mounted[tape.Key{Library: lib, Index: ti}] = true
			}
		}
	}
	var probs []float64
	var totalProb, mountedProb float64
	for _, k := range keys {
		p := res.TapeProb[k]
		probs = append(probs, p)
		totalProb += p
		if mounted[k] {
			mountedProb += p
		}
	}
	if totalProb > 0 {
		d.MountedProbShare = mountedProb / totalProb
	}
	d.ProbGini = gini(probs)

	// Request locality.
	var probSum float64
	gr := catalog.NewGrouper(res.Catalog)
	for i := range w.Requests {
		r := &w.Requests[i]
		groups, err := gr.Group(r)
		if err != nil {
			return nil, err
		}
		var mountedBytes, bytes int64
		for _, g := range groups {
			bytes += g.Bytes
			if mounted[g.Tape] {
				mountedBytes += g.Bytes
			}
		}
		p := r.Prob
		probSum += p
		d.MeanTapesPerRequest += p * float64(len(groups))
		if bytes > 0 {
			d.MountedBytesShare += p * float64(mountedBytes) / float64(bytes)
		}
		if len(groups) > d.MaxTapesOfAnyRequest {
			d.MaxTapesOfAnyRequest = len(groups)
		}
	}
	if probSum > 0 {
		d.MeanTapesPerRequest /= probSum
		d.MountedBytesShare /= probSum
	}
	_ = hw
	return d, nil
}

// gini computes the Gini coefficient of non-negative values.
func gini(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, vals)
	sort.Float64s(sorted)
	var cum, weighted float64
	for i, v := range sorted {
		cum += v
		weighted += float64(i+1) * v
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted)/(float64(n)*cum) - float64(n+1)/float64(n)
}

// Write renders the description as aligned text.
func (d *Description) Write(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"placement diagnostics (%s)\n"+
			"  cartridges used           %d\n"+
			"  fill min/mean/max         %s / %s / %s\n"+
			"  mounted probability share %s\n"+
			"  tape probability Gini     %.3f\n"+
			"  tapes per request (mean)  %.1f (max %d)\n"+
			"  mounted bytes share       %s\n",
		d.Scheme, d.TapesUsed,
		units.FormatBytesSI(d.FillMin), units.FormatBytesSI(d.FillMean), units.FormatBytesSI(d.FillMax),
		units.Percent(d.MountedProbShare), d.ProbGini,
		d.MeanTapesPerRequest, d.MaxTapesOfAnyRequest,
		units.Percent(d.MountedBytesShare))
	return err
}
