package analytic

import (
	"math"
	"testing"

	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/tape"
	"paralleltape/internal/tapesys"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

func setup(t *testing.T, seed uint64) (tape.Hardware, *model.Workload) {
	t.Helper()
	hw := tape.DefaultHardware()
	hw.Libraries = 2
	hw.DrivesPerLib = 4
	hw.TapesPerLib = 24
	hw.Capacity = 200 * units.MB
	p := workload.Params{
		NumObjects:  800,
		NumRequests: 40,
		MinObjSize:  1 * units.MB,
		MaxObjSize:  5 * units.MB,
		ObjShape:    1.1,
		MinReqLen:   8,
		MaxReqLen:   16,
		ReqLenShape: 1,
		Alpha:       0.3,
	}
	w, err := workload.Generate(p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return hw, w
}

func TestNewModelValidation(t *testing.T) {
	hw, w := setup(t, 1)
	if _, err := NewModel(hw, nil); err == nil {
		t.Error("nil placement accepted")
	}
	pr, err := placement.ParallelBatch{M: 2}.Place(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	bad := hw
	bad.Libraries = 5
	if _, err := NewModel(bad, pr); err == nil {
		t.Error("library mismatch accepted")
	}
	if _, err := NewModel(hw, pr); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestEstimateBasicConsistency(t *testing.T) {
	hw, w := setup(t, 2)
	pr, err := placement.ParallelBatch{M: 2}.Place(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(hw, pr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Requests {
		r := &w.Requests[i]
		e, err := m.EstimateRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		if e.Bytes != w.RequestBytes(r) {
			t.Fatalf("request %d: bytes %d vs %d", i, e.Bytes, w.RequestBytes(r))
		}
		if e.Response <= 0 || e.Transfer <= 0 {
			t.Fatalf("request %d: degenerate estimate %+v", i, e)
		}
		// The estimate can never beat the physical floor.
		if e.Response < MinResponse(hw, e.Bytes)-1e-9 {
			t.Fatalf("request %d: estimate %v below physical floor %v",
				i, e.Response, MinResponse(hw, e.Bytes))
		}
		if e.OfflineTapes > e.TapesTouched {
			t.Fatalf("request %d: offline %d > touched %d", i, e.OfflineTapes, e.TapesTouched)
		}
	}
}

// TestEstimateTracksSimulation is the core validation: the analytic mean
// response must correlate with the simulated mean response across schemes
// (same ordering, same rough magnitude).
func TestEstimateTracksSimulation(t *testing.T) {
	hw, w := setup(t, 3)
	schemes := []placement.Scheme{
		placement.ParallelBatch{M: 2},
		placement.ObjectProbability{},
		placement.ClusterProbability{},
	}
	type pair struct {
		name      string
		est, simd float64
	}
	var pairs []pair
	for _, sch := range schemes {
		pr, err := sch.Place(w, hw)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := NewModel(hw, pr)
		if err != nil {
			t.Fatal(err)
		}
		est, err := mod.EstimateSession(w)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := tapesys.New(hw, pr)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := workload.NewRequestStream(w, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		const n = 60
		for i := 0; i < n; i++ {
			mtr, err := sys.Submit(stream.Next())
			if err != nil {
				t.Fatal(err)
			}
			total += mtr.Response
		}
		pairs = append(pairs, pair{name: sch.Name(), est: est.Response, simd: total / n})
	}
	for _, p := range pairs {
		t.Logf("%-22s analytic=%.1fs simulated=%.1fs ratio=%.2f",
			p.name, p.est, p.simd, p.est/p.simd)
		// Magnitude: within 3x either way.
		if p.est > 3*p.simd || p.est < p.simd/3 {
			t.Errorf("%s: analytic %v vs simulated %v out of range", p.name, p.est, p.simd)
		}
	}
	// Ordering: cluster probability must be the slowest under both views.
	var cpEst, cpSim, pbEst, pbSim float64
	for _, p := range pairs {
		switch p.name {
		case "cluster-probability":
			cpEst, cpSim = p.est, p.simd
		case "parallel-batch":
			pbEst, pbSim = p.est, p.simd
		}
	}
	if (cpSim > pbSim) != (cpEst > pbEst) {
		t.Errorf("analytic ordering disagrees with simulation: est %v/%v, sim %v/%v",
			cpEst, pbEst, cpSim, pbSim)
	}
}

func TestEstimateSessionWeights(t *testing.T) {
	hw, w := setup(t, 4)
	pr, err := placement.ParallelBatch{M: 2}.Place(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(hw, pr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.EstimateSession(w)
	if err != nil {
		t.Fatal(err)
	}
	// The session mean must lie within the per-request range, and equal,
	// bit for bit, the popularity-weighted mean of EstimateRequest's
	// estimates taken in the same order: a Grouper shared across the
	// session must not change any request's estimate.
	lo, hi := math.Inf(1), math.Inf(-1)
	var want Estimate
	var probSum, tapesW, offlineW float64
	for i := range w.Requests {
		r := &w.Requests[i]
		e, err := m.EstimateRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		lo = math.Min(lo, e.Response)
		hi = math.Max(hi, e.Response)
		p := r.Prob
		probSum += p
		want.Response += p * e.Response
		want.Switch += p * e.Switch
		want.Seek += p * e.Seek
		want.Transfer += p * e.Transfer
		want.Bytes += int64(p * float64(e.Bytes))
		tapesW += p * float64(e.TapesTouched)
		offlineW += p * float64(e.OfflineTapes)
	}
	if sess.Response < lo || sess.Response > hi {
		t.Errorf("session mean %v outside [%v, %v]", sess.Response, lo, hi)
	}
	inv := 1 / probSum
	want.Response *= inv
	want.Switch *= inv
	want.Seek *= inv
	want.Transfer *= inv
	want.Bytes = int64(float64(want.Bytes) * inv)
	want.TapesTouched = int(math.Round(tapesW * inv))
	want.OfflineTapes = int(math.Round(offlineW * inv))
	if sess != want {
		t.Errorf("EstimateSession = %+v, want the weighted mean of EstimateRequest %+v", sess, want)
	}
}

// TestEstimateSessionAllocBudget bounds EstimateSession's allocations per
// request. One Grouper serves the whole session, so a request costs only
// its per-library aggregates and the Grouper's record of it.
func TestEstimateSessionAllocBudget(t *testing.T) {
	hw, w := setup(t, 4)
	pr, err := placement.ObjectProbability{}.Place(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(hw, pr)
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := m.EstimateSession(w); err != nil {
			t.Fatal(err)
		}
	})
	if budget := 4 * len(w.Requests); n > float64(budget) {
		t.Fatalf("EstimateSession allocates %.0f times for %d requests, budget %d", n, len(w.Requests), budget)
	}
}

func TestIdealBandwidthAndFloor(t *testing.T) {
	hw := tape.DefaultHardware()
	if got := IdealBandwidth(hw); got != 24*80e6 {
		t.Errorf("IdealBandwidth = %v", got)
	}
	if got := MinResponse(hw, 192*units.GB); math.Abs(got-100) > 1e-9 {
		t.Errorf("MinResponse = %v, want 100", got)
	}
	if MinResponse(hw, 0) != 0 {
		t.Error("MinResponse(0) != 0")
	}
}

func TestEstimateBandwidthHelper(t *testing.T) {
	e := Estimate{Response: 10, Bytes: 100}
	if e.Bandwidth() != 10 {
		t.Errorf("Bandwidth = %v", e.Bandwidth())
	}
	if (Estimate{}).Bandwidth() != 0 {
		t.Error("zero estimate bandwidth != 0")
	}
}
