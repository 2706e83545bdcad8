package telemetry

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram is a log-bucketed streaming histogram in the HDR/DDSketch
// family: fixed memory, lock-free atomic updates, and quantile queries
// with a guaranteed relative-error bound.
//
// Buckets grow geometrically by γ = (1+α)/(1−α): bucket i covers the
// value interval (Min·γ^(i−1), Min·γ^i], and a quantile query returns the
// bucket's worst-case-optimal representative 2·Min·γ^i/(γ+1). For any
// observed value v with Min ≤ v ≤ Max this bounds the relative error:
//
//	|Quantile(q) − exact| / exact ≤ α
//
// where "exact" is the sample quantile at the same rank (rank =
// ⌈q·count⌉ over the sorted observations). The contract at the edges —
// shared with metrics.Histogram (see its Add contract):
//
//   - v == 0 is recorded exactly in a dedicated zero bucket;
//   - 0 < v < Min·γ^(-1) clamps into the first bucket, v > Max into the
//     last (counted, but the α bound no longer holds for them);
//   - NaN and negative observations are dropped and tallied in Dropped.
//
// α is fixed at 1% (alpha); over the default range [1e-9, 1e12] that
// costs ~2.4k buckets (≈19 KiB) per histogram. Concurrent
// Observe/Quantile are safe; a quantile read during heavy concurrent
// writes sees a slightly torn but monotone snapshot.
type Histogram struct {
	gamma   float64
	lnGamma float64
	min     float64
	max     float64

	zero    atomic.Uint64
	dropped atomic.Uint64
	count   atomic.Uint64
	sum     FloatCounter
	buckets []atomic.Uint64
}

// alpha is every Histogram's relative-error bound for quantile queries.
const alpha = 0.01

// HistogramOptions configures a Histogram; zero fields take defaults.
type HistogramOptions struct {
	// Min is the smallest value resolved with the α guarantee (default
	// 1e-9); smaller positive values clamp into the first bucket.
	Min float64
	// Max is the largest value resolved with the α guarantee (default
	// 1e12); larger values clamp into the last bucket.
	Max float64
}

// DefaultSummaryQuantiles are the quantiles exposed for each histogram by
// the Prometheus and expvar handlers.
var DefaultSummaryQuantiles = []float64{0.5, 0.9, 0.99}

// NewHistogram builds a histogram; it panics on nonsensical options (a
// construction bug, like metrics.NewHistogram).
func NewHistogram(opt HistogramOptions) *Histogram {
	if opt.Min == 0 {
		opt.Min = 1e-9
	}
	if opt.Max == 0 {
		opt.Max = 1e12
	}
	if opt.Min <= 0 || opt.Max <= opt.Min {
		panic(fmt.Sprintf("telemetry: bad histogram options %+v", opt))
	}
	gamma := (1 + alpha) / (1 - alpha)
	lnGamma := math.Log(gamma)
	n := int(math.Ceil(math.Log(opt.Max/opt.Min)/lnGamma)) + 1
	return &Histogram{
		gamma:   gamma,
		lnGamma: lnGamma,
		min:     opt.Min,
		max:     opt.Max,
		buckets: make([]atomic.Uint64, n),
	}
}

// Buckets returns the number of log-spaced buckets (fixed at creation).
func (h *Histogram) Buckets() int { return len(h.buckets) }

// Observe records one value under the edge contract in the type comment.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || v < 0 {
		h.dropped.Add(1)
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	if v == 0 {
		h.zero.Add(1)
		return
	}
	h.buckets[h.index(v)].Add(1)
}

// index maps a positive value to its bucket, clamping out-of-range values
// into the edge buckets.
func (h *Histogram) index(v float64) int {
	i := int(math.Ceil(math.Log(v/h.min) / h.lnGamma))
	if i < 0 {
		return 0
	}
	if i >= len(h.buckets) {
		return len(h.buckets) - 1
	}
	return i
}

// rep returns bucket i's representative value: the point minimizing the
// worst-case relative error over the bucket's interval.
func (h *Histogram) rep(i int) float64 {
	return 2 * h.min * math.Pow(h.gamma, float64(i)) / (h.gamma + 1)
}

// Count returns the number of recorded observations (dropped excluded).
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of recorded observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Dropped returns the number of NaN/negative observations discarded.
func (h *Histogram) Dropped() uint64 { return h.dropped.Load() }

// Quantile returns the q-quantile estimate (q clamped to [0, 1]): the
// representative of the bucket holding the observation of rank ⌈q·count⌉.
// It returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	cum := h.zero.Load()
	if rank <= cum {
		return 0
	}
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return h.rep(i)
		}
	}
	// Concurrent writers can leave count ahead of the bucket sums for a
	// moment; answer with the highest populated bucket.
	for i := len(h.buckets) - 1; i >= 0; i-- {
		if h.buckets[i].Load() > 0 {
			return h.rep(i)
		}
	}
	return 0
}
