package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestHistogramQuantileErrorBound is the property test behind the
// documented contract: for in-range samples, every quantile estimate is
// within the relative error alpha of the exact sample quantile at the same
// rank.
func TestHistogramQuantileErrorBound(t *testing.T) {
	h := NewHistogram(HistogramOptions{})
	r := rand.New(rand.NewSource(1))
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over nine decades, the shape of simulated
		// durations (milliseconds to weeks).
		v := math.Pow(10, -3+9*r.Float64())
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * float64(len(samples))))
		if rank < 1 {
			rank = 1
		}
		exact := samples[rank-1]
		est := h.Quantile(q)
		rel := math.Abs(est-exact) / exact
		// Tiny slack over alpha for float rounding at bucket edges.
		if rel > alpha*1.0001 {
			t.Errorf("alpha=%v q=%v: est %v vs exact %v (rel err %v)", alpha, q, est, exact, rel)
		}
	}
}

func TestHistogramEdgeContract(t *testing.T) {
	h := NewHistogram(HistogramOptions{Min: 1e-3, Max: 1e3})
	h.Observe(math.NaN())
	h.Observe(-1)
	if h.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", h.Dropped())
	}
	if h.Count() != 0 {
		t.Errorf("count after drops = %d, want 0", h.Count())
	}
	if h.Quantile(0.5) != 0 {
		t.Errorf("quantile of empty histogram = %v, want 0", h.Quantile(0.5))
	}

	h.Observe(0)
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("all-zero quantile = %v, want 0", got)
	}

	// Clamped observations are counted, in the edge buckets.
	h.Observe(1e-9) // below Min
	h.Observe(1e9)  // above Max
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
	lo, hi := h.Quantile(0.5), h.Quantile(1)
	if !(lo < 1e-2) {
		t.Errorf("clamped underflow quantile %v not near Min", lo)
	}
	if !(hi > 1e2) {
		t.Errorf("clamped overflow quantile %v not near Max", hi)
	}

	if h.Sum() <= 0 {
		t.Errorf("sum = %v, want > 0", h.Sum())
	}
}

func TestHistogramFixedMemory(t *testing.T) {
	h := NewHistogram(HistogramOptions{})
	before := h.Buckets()
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100000; i++ {
		h.Observe(r.Float64() * 1e6)
	}
	if h.Buckets() != before {
		t.Errorf("bucket count changed %d -> %d", before, h.Buckets())
	}
	if h.Count() != 100000 {
		t.Errorf("count = %d, want 100000", h.Count())
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(HistogramOptions{})
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(r.Float64() * 100)
				_ = h.Quantile(0.9) // concurrent reads must be safe
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("count = %d, want %d", h.Count(), workers*per)
	}
}

func TestHistogramBadOptionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad options did not panic")
		}
	}()
	NewHistogram(HistogramOptions{Min: 10, Max: 1})
}
