package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with different seeds produced %d identical values", same)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	v1 := s.Uint64()
	v2 := s.Uint64()
	if v1 == v2 {
		t.Error("zero-value Source repeated a value immediately")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child and parent must not mirror each other.
	mirror := 0
	for i := 0; i < 256; i++ {
		if parent.Uint64() == child.Uint64() {
			mirror++
		}
	}
	if mirror != 0 {
		t.Errorf("%d mirrored outputs between parent and child", mirror)
	}
}

func TestSplitNDeterministic(t *testing.T) {
	a := New(99).SplitN(4)
	b := New(99).SplitN(4)
	for i := range a {
		for j := 0; j < 16; j++ {
			if a[i].Uint64() != b[i].Uint64() {
				t.Fatalf("SplitN child %d not reproducible", i)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(11)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(13)
	const n, draws = 8, 160000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d count %d deviates >5%% from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestInt63n(t *testing.T) {
	s := New(17)
	const n = int64(1) << 40
	for i := 0; i < 1000; i++ {
		v := s.Int63n(n)
		if v < 0 || v >= n {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

func TestRange(t *testing.T) {
	s := New(19)
	for i := 0; i < 1000; i++ {
		v := s.Range(5, 8)
		if v < 5 || v >= 8 {
			t.Fatalf("Range(5,8) = %v", v)
		}
	}
}

func TestIntRangeInclusive(t *testing.T) {
	s := New(23)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := s.IntRange(100, 150)
		if v < 100 || v > 150 {
			t.Fatalf("IntRange(100,150) = %d", v)
		}
		seen[v] = true
	}
	if !seen[100] || !seen[150] {
		t.Error("IntRange endpoints never drawn in 10k samples")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(29)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(31)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(37)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid element %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestShuffleAllPositionsMove(t *testing.T) {
	// Statistically, position 0 should host each value ~uniformly.
	s := New(41)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		p := []int{0, 1, 2, 3, 4}
		s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		counts[p[0]]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.07 {
			t.Errorf("value %d appeared at position 0 in %d/%d shuffles", v, c, trials)
		}
	}
}

func TestSampleIntsDistinct(t *testing.T) {
	s := New(43)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 1}, {10, 10}, {1000, 5}, {100, 60}} {
		got := s.SampleInts(tc.n, tc.k)
		if len(got) != tc.k {
			t.Fatalf("SampleInts(%d,%d) len=%d", tc.n, tc.k, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= tc.n {
				t.Fatalf("SampleInts(%d,%d) element %d out of range", tc.n, tc.k, v)
			}
			if seen[v] {
				t.Fatalf("SampleInts(%d,%d) duplicate %d", tc.n, tc.k, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleIntsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SampleInts(3,4) did not panic")
		}
	}()
	New(1).SampleInts(3, 4)
}

func TestSampleIntsCoverage(t *testing.T) {
	// Every element of [0,n) must be reachable.
	s := New(47)
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		for _, v := range s.SampleInts(20, 3) {
			seen[v] = true
		}
	}
	if len(seen) != 20 {
		t.Errorf("SampleInts(20,3) covered only %d/20 values", len(seen))
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	s := New(53)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := s.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Float64()
	}
	_ = sink
}
