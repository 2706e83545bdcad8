package workload

import (
	"math"
	"testing"

	"paralleltape/internal/model"
	"paralleltape/internal/rng"
	"paralleltape/internal/units"
)

// smallParams keeps unit tests fast while preserving the paper's structure.
func smallParams() Params {
	p := Defaults()
	p.NumObjects = 2000
	p.NumRequests = 50
	p.MinReqLen = 10
	p.MaxReqLen = 15
	return p
}

func TestDefaultsValid(t *testing.T) {
	if err := Defaults().Validate(); err != nil {
		t.Errorf("Defaults invalid: %v", err)
	}
}

func TestGenerateStructure(t *testing.T) {
	w, err := Generate(smallParams(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("generated workload invalid: %v", err)
	}
	if w.NumObjects() != 2000 || w.NumRequests() != 50 {
		t.Errorf("counts: %d objects, %d requests", w.NumObjects(), w.NumRequests())
	}
	p := smallParams()
	for _, o := range w.Objects {
		if o.Size < p.MinObjSize || o.Size > p.MaxObjSize {
			t.Fatalf("object %d size %d outside [%d,%d]", o.ID, o.Size, p.MinObjSize, p.MaxObjSize)
		}
	}
	for _, r := range w.Requests {
		if len(r.Objects) < p.MinReqLen || len(r.Objects) > p.MaxReqLen {
			t.Fatalf("request %d has %d objects", r.ID, len(r.Objects))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallParams(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallParams(), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Objects {
		if a.Objects[i] != b.Objects[i] {
			t.Fatalf("objects diverge at %d", i)
		}
	}
	for i := range a.Requests {
		if len(a.Requests[i].Objects) != len(b.Requests[i].Objects) {
			t.Fatalf("request %d lengths diverge", i)
		}
		for j := range a.Requests[i].Objects {
			if a.Requests[i].Objects[j] != b.Requests[i].Objects[j] {
				t.Fatalf("request %d member %d diverges", i, j)
			}
		}
	}
}

func TestGenerateZipfPopularity(t *testing.T) {
	w, err := Generate(smallParams(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// Probabilities decrease with rank and follow r^-alpha.
	for i := 1; i < len(w.Requests); i++ {
		if w.Requests[i].Prob > w.Requests[i-1].Prob {
			t.Fatalf("popularity not decreasing at rank %d", i+1)
		}
	}
	ratio := w.Requests[0].Prob / w.Requests[1].Prob
	want := math.Pow(2, smallParams().Alpha)
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("P(1)/P(2) = %v, want %v", ratio, want)
	}
}

func TestGenerateObjectSizeSkew(t *testing.T) {
	w, err := Generate(smallParams(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Power law: median far below midpoint of the range.
	small := 0
	mid := (smallParams().MinObjSize + smallParams().MaxObjSize) / 2
	for _, o := range w.Objects {
		if o.Size < mid {
			small++
		}
	}
	if frac := float64(small) / float64(len(w.Objects)); frac < 0.8 {
		t.Errorf("object sizes not power-law-skewed: fraction below midpoint = %v", frac)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := map[string]func(*Params){
		"objects<=0":     func(p *Params) { p.NumObjects = 0 },
		"requests<=0":    func(p *Params) { p.NumRequests = 0 },
		"minsize<=0":     func(p *Params) { p.MinObjSize = 0 },
		"max<min size":   func(p *Params) { p.MaxObjSize = p.MinObjSize - 1 },
		"shape<=0":       func(p *Params) { p.ObjShape = 0 },
		"minlen<=0":      func(p *Params) { p.MinReqLen = 0 },
		"max<min len":    func(p *Params) { p.MaxReqLen = p.MinReqLen - 1 },
		"len>population": func(p *Params) { p.MaxReqLen = p.NumObjects + 1 },
		"reqshape<0":     func(p *Params) { p.ReqLenShape = -1 },
		"alpha<0":        func(p *Params) { p.Alpha = -0.5 },
		"alpha NaN":      func(p *Params) { p.Alpha = math.NaN() },
	}
	for name, mutate := range mutations {
		p := smallParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
		if _, err := Generate(p, rng.New(1)); err == nil {
			t.Errorf("%s: Generate accepted invalid params", name)
		}
	}
}

func TestTargetMeanRequestBytes(t *testing.T) {
	w, err := Generate(smallParams(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	target := float64(213 * units.GB)
	factor, err := TargetMeanRequestBytes(w, target)
	if err != nil {
		t.Fatal(err)
	}
	if factor <= 0 {
		t.Errorf("factor = %v", factor)
	}
	got := w.MeanRequestBytes()
	if math.Abs(got-target)/target > 0.001 {
		t.Errorf("mean request bytes = %v, want %v", got, target)
	}
}

func TestTargetMeanRequestBytesErrors(t *testing.T) {
	w, _ := Generate(smallParams(), rng.New(5))
	if _, err := TargetMeanRequestBytes(w, 0); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := TargetMeanRequestBytes(w, -1); err == nil {
		t.Error("negative target accepted")
	}
}

func TestReplaceAlpha(t *testing.T) {
	w, _ := Generate(smallParams(), rng.New(6))
	flat, err := ReplaceAlpha(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat.Requests {
		if math.Abs(flat.Requests[i].Prob-1.0/50) > 1e-12 {
			t.Fatalf("alpha=0 request %d prob %v", i, flat.Requests[i].Prob)
		}
	}
	// Original untouched.
	if w.Requests[0].Prob == flat.Requests[0].Prob {
		t.Error("ReplaceAlpha mutated input (or alpha had no effect)")
	}
	// Membership preserved.
	for i := range w.Requests {
		if len(w.Requests[i].Objects) != len(flat.Requests[i].Objects) {
			t.Fatalf("request %d membership changed", i)
		}
	}
	if _, err := ReplaceAlpha(w, -1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := ReplaceAlpha(w, math.NaN()); err == nil {
		t.Error("NaN alpha accepted")
	}
}

func TestRequestStreamFrequencies(t *testing.T) {
	w := &model.Workload{
		Objects: []model.Object{{ID: 0, Size: 1}},
		Requests: []model.Request{
			{ID: 0, Prob: 0.8, Objects: []model.ObjectID{0}},
			{ID: 1, Prob: 0.2, Objects: []model.ObjectID{0}},
		},
	}
	s, err := NewRequestStream(w, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	count0 := 0
	for i := 0; i < n; i++ {
		if s.Next().ID == 0 {
			count0++
		}
	}
	if frac := float64(count0) / n; math.Abs(frac-0.8) > 0.01 {
		t.Errorf("request 0 drawn with frequency %v, want 0.8", frac)
	}
}

func TestRequestStreamDraw(t *testing.T) {
	w, _ := Generate(smallParams(), rng.New(9))
	s, err := NewRequestStream(w, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	reqs := s.Draw(200)
	if len(reqs) != 200 {
		t.Fatalf("Draw(200) returned %d", len(reqs))
	}
	for _, r := range reqs {
		if r == nil || int(r.ID) >= w.NumRequests() {
			t.Fatal("stream returned invalid request")
		}
	}
}

func TestPaperScaleGeneration(t *testing.T) {
	// Full paper-scale generation (30k objects, 300 requests) must work and
	// produce a mean request size in the hundreds of GB.
	if testing.Short() {
		t.Skip("paper-scale generation in -short mode")
	}
	w, err := Generate(Defaults(), rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	mean := w.MeanRequestBytes()
	if mean < float64(100*units.GB) || mean > float64(400*units.GB) {
		t.Errorf("default mean request size = %s, want order of the paper's ≈213 GB",
			units.FormatBytesSI(int64(mean)))
	}
	stats := w.ComputeStats()
	if stats.MeanRequestLen < 100 || stats.MeanRequestLen > 150 {
		t.Errorf("mean request length %v outside [100,150]", stats.MeanRequestLen)
	}
	// Total data must exceed always-mountable capacity but fit on
	// 3 libraries × 80 tapes × 400 GB.
	if stats.TotalBytes > 96*units.TB {
		t.Errorf("total bytes %s exceed raw capacity 96 TB", units.FormatBytesSI(stats.TotalBytes))
	}
	if stats.TotalBytes < 10*units.TB {
		t.Errorf("total bytes %s too small to exercise tape switching", units.FormatBytesSI(stats.TotalBytes))
	}
}
