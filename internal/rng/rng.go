// Package rng provides a small, fast, deterministic pseudo-random number
// generator for the simulator. Every simulation run is seeded explicitly so
// experiments reproduce bit-for-bit, and each consumer seeds its own Source
// from the run's seed — the workload generator, each request stream (for
// example seed ^ 0xDEADBEEF in tapesim) and the fault injector — so
// concurrent experiment workers never share generator state.
//
// The core generator is SplitMix64 (Steele, Lea & Flood, OOPSLA'14), which
// passes BigCrush, has a 2^64 period per stream, and whose whole state is a
// single uint64, so a Source per consumer costs nothing.
package rng

import "math"

// golden is the odd constant 2^64/φ used by SplitMix64 to advance state.
const golden = 0x9E3779B97F4A7C15

// Source is a deterministic SplitMix64 stream. The zero value is a valid
// generator seeded with 0. Source is not safe for concurrent use; give each
// goroutine its own Source.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Distinct seeds yield decorrelated
// streams thanks to the finalizer's avalanche behaviour.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Split returns a new Source whose stream is statistically independent of
// the receiver's future output. The receiver is advanced once.
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64()}
}

// SplitN returns n independent child sources, advancing the receiver n
// times. Useful for fanning one master seed out to parallel workers.
func (s *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = s.Split()
	}
	return out
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	return int64(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Rejection sampling on the top of the range to remove bias.
	// threshold = 2^64 mod n computed as (-n) mod n.
	threshold := (-n) % n
	for {
		v := s.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Range returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (s *Source) Range(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Range called with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// IntRange returns a uniform int in [lo, hi] inclusive. Panics if hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange called with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method. Used by a few synthetic-workload extensions; the paper's core
// workloads are power-law and Zipf only.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(q)/q)
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle permutes n elements using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// SampleInts returns k distinct integers drawn uniformly without
// replacement from [0, n). It panics if k > n or k < 0. The result is in
// random order. For k much smaller than n it uses a hash-set rejection
// loop; otherwise a partial Fisher–Yates over a dense index slice.
func (s *Source) SampleInts(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleInts called with k < 0 or k > n")
	}
	if k == 0 {
		return nil
	}
	if k*8 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := s.Intn(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
