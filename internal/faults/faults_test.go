package faults

import (
	"math"
	"strings"
	"testing"

	"paralleltape/internal/dist"
	"paralleltape/internal/rng"
)

func TestExponentialMean(t *testing.T) {
	e := dist.Exponential{Mean: 250}
	src := rng.New(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := e.Sample(src)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-250)/250 > 0.02 {
		t.Errorf("empirical mean %v, want ≈250", mean)
	}
}

func TestNewExponentialValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := dist.NewExponential(bad); err == nil {
			t.Errorf("NewExponential(%v): want error", bad)
		}
	}
	if e, err := dist.NewExponential(3); err != nil || e.Mean != 3 {
		t.Errorf("NewExponential(3) = %v, %v", e, err)
	}
}

func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{DriveMTBF: -1},
		{RobotMTBF: -1},
		{MediaErrorPerRead: 1.5},
		{MediaErrorPerRead: -0.1},
		{DriveOutages: []DriveOutage{{At: -1, Duration: 5}}},
		{DriveOutages: []DriveOutage{{At: 1, Duration: 0}}},
		{RobotOutages: []RobotOutage{{At: 0, Duration: -2}}},
		{MediaFaults: []MediaFault{{Read: 0, Frac: 0.5}}},
		{MediaFaults: []MediaFault{{Read: 1, Frac: 0}}},
		{MediaFaults: []MediaFault{{Read: 1, Frac: 1.5}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %d: want validation error", i)
		}
	}
	good := Profile{Seed: 1, DriveMTBF: 100, RobotMTBF: 50, MediaErrorPerRead: 0.01}
	if err := good.Validate(); err != nil {
		t.Errorf("good profile: %v", err)
	}
	if !good.Enabled() {
		t.Error("good profile should be enabled")
	}
	if (&Profile{}).Enabled() {
		t.Error("zero profile should be disabled")
	}
}

// TestProfileValidateRepairMeans pins the repair-mean check: a repair
// distribution whose mean is not positive and finite is rejected, naming
// its field, and so is an Injector built from it. A negative mean used to
// pass, and the first query past a failure then spun forever in
// timeline.advance.
func TestProfileValidateRepairMeans(t *testing.T) {
	bad := []Sampler{
		dist.Exponential{Mean: -600},
		dist.Exponential{Mean: 0},
		dist.Exponential{Mean: math.NaN()},
		dist.Exponential{Mean: math.Inf(1)},
		&dist.BoundedPareto{Lo: -100, Hi: -10, Shape: 1.5},
	}
	for i, s := range bad {
		for _, p := range []Profile{
			{DriveMTBF: 500, DriveRepair: s},
			{RobotMTBF: 500, RobotRepair: s},
		} {
			field := "DriveRepair"
			if p.RobotRepair != nil {
				field = "RobotRepair"
			}
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("sampler %d as %s: Validate() = %v, want an error naming %s", i, field, err, field)
			}
			if _, err := New(p, 1, 2, 3); err == nil {
				t.Errorf("sampler %d as %s: New accepted it", i, field)
			}
		}
	}
	pareto, err := dist.NewBoundedPareto(300, 3000, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Sampler{nil, dist.Exponential{Mean: 600}, pareto} {
		p := Profile{DriveMTBF: 500, DriveRepair: s, RobotMTBF: 500, RobotRepair: s}
		if err := p.Validate(); err != nil {
			t.Errorf("repair sampler %#v: %v", s, err)
		}
	}
}

func TestNewRejectsOutOfRangeScripts(t *testing.T) {
	cases := []Profile{
		{DriveOutages: []DriveOutage{{Library: 2, Drive: 0, At: 1, Duration: 1}}},
		{DriveOutages: []DriveOutage{{Library: 0, Drive: 3, At: 1, Duration: 1}}},
		{RobotOutages: []RobotOutage{{Library: -1, At: 1, Duration: 1}}},
		{MediaFaults: []MediaFault{{Library: 0, Tape: 9, Read: 1, Frac: 0.5}}},
		// Overlapping windows on one drive.
		{DriveOutages: []DriveOutage{
			{Library: 0, Drive: 0, At: 10, Duration: 20},
			{Library: 0, Drive: 0, At: 15, Duration: 5},
		}},
	}
	for i, p := range cases {
		if _, err := New(p, 2, 3, 5); err == nil {
			t.Errorf("case %d: want geometry/overlap error", i)
		}
	}
}

func TestScriptedTimeline(t *testing.T) {
	p := Profile{DriveOutages: []DriveOutage{
		{Library: 1, Drive: 0, At: 100, Duration: 50},
		{Library: 1, Drive: 0, At: 400, Duration: 25},
	}}
	in, err := New(p, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := 1*2 + 0
	if down, _ := in.DriveDown(g, 99); down {
		t.Error("down before scripted outage")
	}
	if down, until := in.DriveDown(g, 100); !down || until != 150 {
		t.Errorf("DriveDown(100) = %v, %v; want down until 150", down, until)
	}
	if next := in.NextDriveFailure(g, 200); next != 400 {
		t.Errorf("NextDriveFailure(200) = %v, want 400", next)
	}
	if down, until := in.DriveDown(g, 410); !down || until != 425 {
		t.Errorf("DriveDown(410) = %v, %v; want down until 425", down, until)
	}
	if next := in.NextDriveFailure(g, 500); !math.IsInf(next, 1) {
		t.Errorf("NextDriveFailure(500) = %v, want +Inf", next)
	}
	// Other drives stay failure-free.
	if down, _ := in.DriveDown(0, 1e9); down {
		t.Error("unscripted drive failed without MTBF")
	}
}

func TestStochasticScheduleDeterminism(t *testing.T) {
	p := Profile{Seed: 42, DriveMTBF: 1000, RobotMTBF: 5000, MediaErrorPerRead: 0.1}
	a, err := New(p, 3, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(p, 3, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 12; g++ {
		for _, tt := range []float64{0, 500, 1500, 9000, 50000} {
			an := a.NextDriveFailure(g, tt)
			bn := b.NextDriveFailure(g, tt)
			if an != bn {
				t.Fatalf("drive %d t=%v: schedules diverge (%v vs %v)", g, tt, an, bn)
			}
		}
	}
	for lib := 0; lib < 3; lib++ {
		ad, au := a.RobotDown(lib, 12345)
		bd, bu := b.RobotDown(lib, 12345)
		if ad != bd || au != bu {
			t.Fatalf("robot %d schedules diverge", lib)
		}
	}
	for i := 0; i < 50; i++ {
		af, afr := a.MediaRead(1, 3)
		bf, bfr := b.MediaRead(1, 3)
		if af != bf || afr != bfr {
			t.Fatalf("media draw %d diverges", i)
		}
	}
}

func TestResetReplaysSchedule(t *testing.T) {
	p := Profile{Seed: 9, DriveMTBF: 2000, MediaErrorPerRead: 0.2,
		MediaFaults: []MediaFault{{Library: 0, Tape: 1, Read: 2, Frac: 0.5}}}
	in, err := New(p, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	type draw struct {
		failed bool
		frac   float64
	}
	var first []draw
	var firstFail []float64
	for i := 0; i < 10; i++ {
		f, fr := in.MediaRead(0, 1)
		first = append(first, draw{f, fr})
	}
	for _, tt := range []float64{0, 3000, 9000} {
		firstFail = append(firstFail, in.NextDriveFailure(0, tt))
	}
	if !first[1].failed || first[1].frac != 0.5 {
		t.Errorf("scripted media fault on read 2 not applied: %+v", first[1])
	}
	in.Reset()
	for i := 0; i < 10; i++ {
		f, fr := in.MediaRead(0, 1)
		if (draw{f, fr}) != first[i] {
			t.Fatalf("media draw %d not replayed after Reset", i)
		}
	}
	for i, tt := range []float64{0, 3000, 9000} {
		if got := in.NextDriveFailure(0, tt); got != firstFail[i] {
			t.Fatalf("drive schedule not replayed after Reset: %v vs %v", got, firstFail[i])
		}
	}
}

func TestStochasticMTBFRoughlyCalibrated(t *testing.T) {
	// Over a long horizon the number of failures of one drive should be
	// near horizon/(MTBF+repairMean).
	p := Profile{Seed: 5, DriveMTBF: 1000, DriveRepair: dist.Exponential{Mean: 100}}
	in, err := New(p, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 4.4e6 // ≈4000 expected cycles
	count := 0
	t0 := 0.0
	for {
		f := in.NextDriveFailure(0, t0)
		if f > horizon {
			break
		}
		count++
		_, until := in.DriveDown(0, f)
		t0 = until
	}
	expect := horizon / 1100
	if math.Abs(float64(count)-expect)/expect > 0.1 {
		t.Errorf("observed %d failure cycles, want ≈%.0f", count, expect)
	}
}
