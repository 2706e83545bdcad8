package dist

import (
	"math"
	"testing"
	"testing/quick"

	"paralleltape/internal/rng"
)

func TestZipfNormalized(t *testing.T) {
	for _, alpha := range []float64{0, 0.3, 0.5, 1, 2} {
		z := NewZipf(300, alpha)
		sum := 0.0
		for r := 1; r <= 300; r++ {
			sum += z.Prob(r)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("alpha=%v: probabilities sum to %v", alpha, sum)
		}
	}
}

func TestZipfUniformWhenAlphaZero(t *testing.T) {
	z := NewZipf(100, 0)
	for r := 1; r <= 100; r++ {
		if math.Abs(z.Prob(r)-0.01) > 1e-12 {
			t.Fatalf("alpha=0 rank %d prob %v != 0.01", r, z.Prob(r))
		}
	}
}

func TestZipfMonotoneDecreasing(t *testing.T) {
	z := NewZipf(50, 0.7)
	for r := 2; r <= 50; r++ {
		if z.Prob(r) > z.Prob(r-1) {
			t.Fatalf("Zipf not decreasing at rank %d", r)
		}
	}
}

func TestZipfRatioMatchesPowerLaw(t *testing.T) {
	z := NewZipf(10, 1)
	// P(1)/P(2) should equal 2^1.
	ratio := z.Prob(1) / z.Prob(2)
	if math.Abs(ratio-2) > 1e-9 {
		t.Errorf("P(1)/P(2) = %v, want 2", ratio)
	}
}

// TestZipfSampleFrequencies draws Zipf ranks the way the request stream
// draws requests, through a Discrete sampler over the Zipf probabilities.
func TestZipfSampleFrequencies(t *testing.T) {
	src := rng.New(1)
	z := NewZipf(10, 1)
	d, err := NewDiscrete(z.Probs())
	if err != nil {
		t.Fatal(err)
	}
	const n = 400000
	counts := make([]int, 11)
	for i := 0; i < n; i++ {
		r := d.Sample(src) + 1
		if r < 1 || r > 10 {
			t.Fatalf("sample out of range: %d", r)
		}
		counts[r]++
	}
	for r := 1; r <= 10; r++ {
		got := float64(counts[r]) / n
		want := z.Prob(r)
		if math.Abs(got-want) > 0.004 {
			t.Errorf("rank %d frequency %v, want %v", r, got, want)
		}
	}
}

func TestZipfProbsCopy(t *testing.T) {
	z := NewZipf(5, 0.5)
	p := z.Probs()
	p[0] = 99
	if z.Prob(1) == 99 {
		t.Error("Probs returned internal slice")
	}
}

func TestZipfPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n=0":          func() { NewZipf(0, 1) },
		"alpha<0":      func() { NewZipf(10, -1) },
		"rank=0":       func() { NewZipf(10, 1).Prob(0) },
		"rank too big": func() { NewZipf(10, 1).Prob(11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBoundedParetoRange(t *testing.T) {
	src := rng.New(2)
	p, err := NewBoundedPareto(256e6, 16e9, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		v := p.Sample(src)
		if v < p.Lo || v > p.Hi {
			t.Fatalf("sample %v outside [%v,%v]", v, p.Lo, p.Hi)
		}
	}
}

func TestBoundedParetoMeanEmpirical(t *testing.T) {
	src := rng.New(3)
	p, err := NewBoundedPareto(1, 1000, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += p.Sample(src)
	}
	emp := sum / n
	if ana := p.Mean(); math.Abs(emp-ana)/ana > 0.02 {
		t.Errorf("empirical mean %v vs analytic %v", emp, ana)
	}
}

func TestBoundedParetoMeanShapeOne(t *testing.T) {
	src := rng.New(4)
	p, err := NewBoundedPareto(1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += p.Sample(src)
	}
	emp := sum / n
	if ana := p.Mean(); math.Abs(emp-ana)/ana > 0.02 {
		t.Errorf("shape=1 empirical mean %v vs analytic %v", emp, ana)
	}
}

func TestBoundedParetoSkew(t *testing.T) {
	// A power law must put most mass near the lower bound.
	src := rng.New(5)
	p, _ := NewBoundedPareto(1, 1000, 1.2)
	below := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if p.Sample(src) < 10 {
			below++
		}
	}
	if frac := float64(below) / n; frac < 0.8 {
		t.Errorf("only %v of samples below 10x the lower bound; power law should be heavily skewed", frac)
	}
}

func TestBoundedParetoDegenerate(t *testing.T) {
	src := rng.New(6)
	p, err := NewBoundedPareto(5, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Sample(src); v != 5 {
		t.Errorf("degenerate sample = %v", v)
	}
	if m := p.Mean(); m != 5 {
		t.Errorf("degenerate mean = %v", m)
	}
}

func TestBoundedParetoErrors(t *testing.T) {
	cases := []struct{ lo, hi, shape float64 }{
		{0, 10, 1},
		{-1, 10, 1},
		{10, 5, 1},
		{1, 10, 0},
		{1, 10, -2},
		{math.NaN(), 10, 1},
	}
	for _, c := range cases {
		if _, err := NewBoundedPareto(c.lo, c.hi, c.shape); err == nil {
			t.Errorf("NewBoundedPareto(%v,%v,%v): want error", c.lo, c.hi, c.shape)
		}
	}
}

func TestBoundedParetoSampleInt(t *testing.T) {
	src := rng.New(7)
	p, _ := NewBoundedPareto(100, 150, 0.8)
	for i := 0; i < 5000; i++ {
		v := p.SampleInt(src)
		if v < 100 || v > 150 {
			t.Fatalf("SampleInt out of range: %d", v)
		}
	}
}

func TestDiscreteMatchesWeights(t *testing.T) {
	src := rng.New(8)
	w := []float64{1, 2, 3, 4}
	d, err := NewDiscrete(w)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400000
	counts := make([]int, 4)
	for i := 0; i < n; i++ {
		counts[d.Sample(src)]++
	}
	for i := range w {
		got := float64(counts[i]) / n
		want := w[i] / 10
		if math.Abs(got-want) > 0.005 {
			t.Errorf("outcome %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestDiscreteProbNormalized(t *testing.T) {
	d, err := NewDiscrete([]float64{3, 0, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Prob(0)-0.3) > 1e-12 || d.Prob(1) != 0 || math.Abs(d.Prob(2)-0.7) > 1e-12 {
		t.Errorf("normalized probs wrong: %v %v %v", d.Prob(0), d.Prob(1), d.Prob(2))
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestDiscreteZeroWeightNeverSampled(t *testing.T) {
	src := rng.New(9)
	d, _ := NewDiscrete([]float64{1, 0, 1})
	for i := 0; i < 50000; i++ {
		if d.Sample(src) == 1 {
			t.Fatal("sampled a zero-weight outcome")
		}
	}
}

func TestDiscreteSingleOutcome(t *testing.T) {
	src := rng.New(10)
	d, _ := NewDiscrete([]float64{5})
	for i := 0; i < 100; i++ {
		if d.Sample(src) != 0 {
			t.Fatal("single-outcome sampler returned nonzero index")
		}
	}
}

func TestDiscreteErrors(t *testing.T) {
	for _, w := range [][]float64{nil, {}, {0, 0}, {-1, 2}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := NewDiscrete(w); err == nil {
			t.Errorf("NewDiscrete(%v): want error", w)
		}
	}
}

func TestDiscreteQuickValidIndex(t *testing.T) {
	src := rng.New(11)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		sum := 0.0
		for i, r := range raw {
			w[i] = float64(r)
			sum += w[i]
		}
		if sum == 0 {
			return true
		}
		d, err := NewDiscrete(w)
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			idx := d.Sample(src)
			if idx < 0 || idx >= len(w) || w[idx] == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPowerLawIntRangeAndSkew(t *testing.T) {
	src := rng.New(12)
	p, err := NewPowerLawInt(100, 150, 2)
	if err != nil {
		t.Fatal(err)
	}
	lowHalf := 0
	const n = 100000
	for i := 0; i < n; i++ {
		v := p.Sample(src)
		if v < 100 || v > 150 {
			t.Fatalf("sample out of range: %d", v)
		}
		if v <= 125 {
			lowHalf++
		}
	}
	if frac := float64(lowHalf) / n; frac <= 0.5 {
		t.Errorf("power law should favor small values; low-half fraction %v", frac)
	}
}

func TestPowerLawIntUniformShapeZero(t *testing.T) {
	p, err := NewPowerLawInt(1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m := p.Mean(); math.Abs(m-2.5) > 1e-9 {
		t.Errorf("uniform mean = %v, want 2.5", m)
	}
}

func TestPowerLawIntMeanEmpirical(t *testing.T) {
	src := rng.New(13)
	p, _ := NewPowerLawInt(100, 150, 1.5)
	const n = 300000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(p.Sample(src))
	}
	emp := sum / n
	if ana := p.Mean(); math.Abs(emp-ana) > 0.2 {
		t.Errorf("empirical mean %v vs analytic %v", emp, ana)
	}
}

func TestPowerLawIntErrors(t *testing.T) {
	for _, c := range []struct{ lo, hi int }{{0, 5}, {-3, 5}, {10, 9}} {
		if _, err := NewPowerLawInt(c.lo, c.hi, 1); err == nil {
			t.Errorf("NewPowerLawInt(%d,%d): want error", c.lo, c.hi)
		}
	}
}

func BenchmarkDiscreteSample(b *testing.B) {
	src := rng.New(1)
	w := make([]float64, 300)
	for i := range w {
		w[i] = 1 / float64(i+1)
	}
	d, _ := NewDiscrete(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Sample(src)
	}
}
