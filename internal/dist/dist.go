// Package dist implements the probability distributions the paper's
// workload generator needs: Zipf request popularity, bounded power-law
// (Pareto) object sizes and request lengths, and a discrete sampler (Walker
// alias method) for drawing requests by their popularity during simulation.
//
// All samplers draw from an injected *rng.Source so simulations stay
// deterministic and parallel experiment workers can use independent streams.
package dist

import (
	"fmt"
	"math"

	"paralleltape/internal/rng"
)

// Zipf describes the paper's request-popularity model
// P_r = c · r^(-alpha) for rank r = 1..N, where c normalizes the mass to 1.
// alpha = 0 yields the uniform distribution; alpha = 1 the most skewed case
// the paper evaluates.
type Zipf struct {
	N     int
	Alpha float64
	probs []float64 // probs[i] is the probability of rank i+1
}

// NewZipf builds a Zipf distribution over n ranks. It panics if n <= 0 or
// alpha < 0 (the paper only uses alpha in [0,1], larger values are legal).
func NewZipf(n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("dist: NewZipf with n <= 0")
	}
	if alpha < 0 || math.IsNaN(alpha) {
		panic("dist: NewZipf with negative or NaN alpha")
	}
	z := &Zipf{N: n, Alpha: alpha}
	z.probs = make([]float64, n)
	sum := 0.0
	for r := 1; r <= n; r++ {
		p := math.Pow(float64(r), -alpha)
		z.probs[r-1] = p
		sum += p
	}
	for i := range z.probs {
		z.probs[i] /= sum
	}
	return z
}

// Prob returns the probability of rank r (1-based).
func (z *Zipf) Prob(r int) float64 {
	if r < 1 || r > z.N {
		panic(fmt.Sprintf("dist: Zipf rank %d out of [1,%d]", r, z.N))
	}
	return z.probs[r-1]
}

// Probs returns a copy of the full probability vector indexed by rank-1.
func (z *Zipf) Probs() []float64 {
	out := make([]float64, len(z.probs))
	copy(out, z.probs)
	return out
}

// BoundedPareto is a power-law distribution truncated to [Lo, Hi] with
// shape parameter Shape > 0. Its density is f(x) ∝ x^(-Shape-1) on the
// interval. The paper states object sizes and request lengths "follow a
// power law distribution within a pre-defined range"; this is the standard
// such distribution.
type BoundedPareto struct {
	Lo, Hi float64
	Shape  float64
}

// NewBoundedPareto validates and returns a bounded Pareto distribution.
func NewBoundedPareto(lo, hi, shape float64) (*BoundedPareto, error) {
	switch {
	case !(lo > 0):
		return nil, fmt.Errorf("dist: bounded Pareto lo must be > 0, got %v", lo)
	case !(hi >= lo):
		return nil, fmt.Errorf("dist: bounded Pareto needs hi >= lo, got [%v,%v]", lo, hi)
	case !(shape > 0):
		return nil, fmt.Errorf("dist: bounded Pareto shape must be > 0, got %v", shape)
	}
	return &BoundedPareto{Lo: lo, Hi: hi, Shape: shape}, nil
}

// Sample draws one variate by inverse-CDF transform.
func (p *BoundedPareto) Sample(src *rng.Source) float64 {
	if p.Hi == p.Lo {
		return p.Lo
	}
	u := src.Float64()
	la := math.Pow(p.Lo, p.Shape)
	ha := math.Pow(p.Hi, p.Shape)
	// Inverse CDF of the truncated Pareto.
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.Shape)
	if x < p.Lo {
		x = p.Lo
	}
	if x > p.Hi {
		x = p.Hi
	}
	return x
}

// Mean returns the analytic mean of the bounded Pareto.
func (p *BoundedPareto) Mean() float64 {
	if p.Hi == p.Lo {
		return p.Lo
	}
	a := p.Shape
	l, h := p.Lo, p.Hi
	if a == 1 {
		// Limit case: mean = ln(h/l) · l·h/(h-l).
		return math.Log(h/l) * l * h / (h - l)
	}
	num := math.Pow(l, a) / (1 - math.Pow(l/h, a))
	return num * a / (a - 1) * (1/math.Pow(l, a-1) - 1/math.Pow(h, a-1))
}

// SampleInt draws an integer variate (rounded) clamped to [Lo, Hi].
func (p *BoundedPareto) SampleInt(src *rng.Source) int64 {
	v := int64(math.Round(p.Sample(src)))
	if v < int64(math.Ceil(p.Lo)) {
		v = int64(math.Ceil(p.Lo))
	}
	if v > int64(math.Floor(p.Hi)) {
		v = int64(math.Floor(p.Hi))
	}
	return v
}

// Exponential is the memoryless distribution with the given mean — the
// classic model for times between independent failures and for repair
// durations. The fault injector (internal/faults) uses it for both device
// up-times (mean = MTBF) and default repair times.
type Exponential struct {
	// Mean is the distribution mean, in whatever unit the caller works in
	// (the fault models use simulated seconds). Must be positive.
	Mean float64
}

// NewExponential validates and returns an exponential distribution.
func NewExponential(mean float64) (Exponential, error) {
	if !(mean > 0) || math.IsInf(mean, 0) {
		return Exponential{}, fmt.Errorf("dist: exponential mean must be positive and finite, got %v", mean)
	}
	return Exponential{Mean: mean}, nil
}

// Sample draws one variate: Mean · Exp(1).
func (e Exponential) Sample(src *rng.Source) float64 {
	return e.Mean * src.ExpFloat64()
}

// Discrete is a Walker-alias-method sampler over an arbitrary finite
// probability vector. Building is O(n); sampling is O(1). The simulator
// uses it to draw which of the paper's 300 predefined requests to submit.
type Discrete struct {
	n     int
	prob  []float64 // scaled acceptance probability per bucket
	alias []int
	orig  []float64 // normalized input probabilities
}

// NewDiscrete builds an alias table from weights (need not be normalized).
// It returns an error if weights is empty, contains a negative or non-finite
// value, or sums to zero.
func NewDiscrete(weights []float64) (*Discrete, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("dist: NewDiscrete with no weights")
	}
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dist: weight[%d] = %v invalid", i, w)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("dist: weights sum to zero")
	}
	d := &Discrete{
		n:     n,
		prob:  make([]float64, n),
		alias: make([]int, n),
		orig:  make([]float64, n),
	}
	scaled := make([]float64, n)
	for i, w := range weights {
		d.orig[i] = w / sum
		scaled[i] = d.orig[i] * float64(n)
	}
	var small, large []int
	for i, s := range scaled {
		if s < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		d.prob[s] = scaled[s]
		d.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		d.prob[i] = 1
		d.alias[i] = i
	}
	for _, i := range small {
		d.prob[i] = 1
		d.alias[i] = i
	}
	return d, nil
}

// Sample draws an index in [0, len(weights)) with the normalized
// probability of its weight.
func (d *Discrete) Sample(src *rng.Source) int {
	i := src.Intn(d.n)
	if src.Float64() < d.prob[i] {
		return i
	}
	return d.alias[i]
}

// Prob returns the normalized probability of index i.
func (d *Discrete) Prob(i int) float64 {
	return d.orig[i]
}

// Len returns the number of outcomes.
func (d *Discrete) Len() int { return d.n }

// PowerLawInt samples integers in [lo, hi] with probability ∝ v^(-shape),
// the paper's model for the number of objects per request (range 100–150).
type PowerLawInt struct {
	Lo, Hi int
	d      *Discrete
}

// NewPowerLawInt builds the sampler. shape 0 degenerates to uniform.
func NewPowerLawInt(lo, hi int, shape float64) (*PowerLawInt, error) {
	if lo <= 0 || hi < lo {
		return nil, fmt.Errorf("dist: PowerLawInt needs 0 < lo <= hi, got [%d,%d]", lo, hi)
	}
	w := make([]float64, hi-lo+1)
	for i := range w {
		w[i] = math.Pow(float64(lo+i), -shape)
	}
	d, err := NewDiscrete(w)
	if err != nil {
		return nil, err
	}
	return &PowerLawInt{Lo: lo, Hi: hi, d: d}, nil
}

// Sample draws one value in [Lo, Hi].
func (p *PowerLawInt) Sample(src *rng.Source) int {
	return p.Lo + p.d.Sample(src)
}

// Mean returns the analytic mean of the sampler.
func (p *PowerLawInt) Mean() float64 {
	m := 0.0
	for i := 0; i < p.d.Len(); i++ {
		m += float64(p.Lo+i) * p.d.Prob(i)
	}
	return m
}
