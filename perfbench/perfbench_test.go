package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"paralleltape/internal/analytic"
	"paralleltape/internal/experiments"
	"paralleltape/internal/metrics"
	"paralleltape/internal/tape"
	"paralleltape/internal/tapesys"
)

// validRequest returns a self-consistent healthy result on hw: 100 GB
// served by one drive in 10 s of seeking, its transfer time, and 50 s of
// switching.
func validRequest(hw tape.Hardware) tapesys.RequestMetrics {
	const bytes = 100e9
	xfer := bytes / hw.TransferRate
	return tapesys.RequestMetrics{
		Request: 7, Bytes: bytes, BytesServed: bytes,
		Seek: 10, Transfer: xfer, Switch: 50, Response: 60 + xfer,
		SumSeek: 10, SumTransfer: xfer, Switches: 1, TapesTouched: 1, DrivesUsed: 1,
	}
}

func TestOraclesRejectCorruptedResults(t *testing.T) {
	hw := tape.DefaultHardware()
	good := validRequest(hw)
	if err := checkRequest(hw, true, good, good.Bytes); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	cases := []struct {
		name    string
		healthy bool
		want    string // part of the expected error
		corrupt func(m *tapesys.RequestMetrics)
	}{
		{"bytes differ from the workload", false, "workload says", func(m *tapesys.RequestMetrics) { m.Bytes++; m.BytesServed++ }},
		{"faster than every drive streaming", false, "ceiling", func(m *tapesys.RequestMetrics) {
			m.Response = analytic.MinResponse(hw, m.Bytes) / 2
			m.Seek, m.Transfer, m.Switch = 0, m.Response, 0
		}},
		{"response shorter than seek+transfer", false, "seek+transfer", func(m *tapesys.RequestMetrics) {
			m.Response = m.Seek + m.Transfer - 1
		}},
		{"negative switch time", false, "negative", func(m *tapesys.RequestMetrics) { m.Switch = -1 }},
		{"NaN response", false, "non-finite", func(m *tapesys.RequestMetrics) { m.Response = math.NaN() }},
		{"served more than requested", false, "served", func(m *tapesys.RequestMetrics) { m.BytesServed = m.Bytes + 1 }},
		{"healthy run lost bytes", true, "healthy run served", func(m *tapesys.RequestMetrics) { m.BytesServed-- }},
		{"healthy run failed a group", true, "degraded service", func(m *tapesys.RequestMetrics) { m.FailedGroups = 1 }},
		{"healthy run timed out", true, "degraded service", func(m *tapesys.RequestMetrics) { m.TimedOut = true }},
		{"transfer time does not move the bytes", true, "transfer time moves", func(m *tapesys.RequestMetrics) {
			m.SumTransfer *= 1.01
		}},
	}
	for _, c := range cases {
		m := good
		c.corrupt(&m)
		err := checkRequest(hw, c.healthy, m, good.Bytes)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// Degraded service is legal when faults or timeouts are configured.
	m := good
	m.BytesServed, m.FailedGroups, m.TimedOut = m.Bytes/2, 1, true
	if err := checkRequest(hw, false, m, good.Bytes); err != nil {
		t.Errorf("degraded result rejected on a faulty run: %v", err)
	}
}

func TestReportOracles(t *testing.T) {
	hw := tape.DefaultHardware()
	ceil := analytic.IdealBandwidth(hw)
	row := func(bw float64, x float64) experiments.Row {
		return experiments.Row{Label: "r", Scheme: "s", X: x, Stats: metrics.SessionStats{Requests: 1, MeanBandwidth: bw}}
	}
	reps := []*experiments.Report{
		{ID: "fig6", Rows: []experiments.Row{row(ceil, 0), row(ceil*1.01, 0), {Err: errors.New("boom")}}},
		// Fig. 8 row at 5 libraries may exceed the 3-library ceiling, but
		// not its own.
		{ID: "fig8", Rows: []experiments.Row{row(ceil*1.5, 5), row(ceil*1.01, 1)}},
		{ID: "tech", Rows: []experiments.Row{row(ceil*3.9, 4), row(ceil*2.1, 2)}},
	}
	rows, fails := checkReports(hw, reps)
	if rows != 7 {
		t.Errorf("checked %d rows, want 7", rows)
	}
	if len(fails) != 4 {
		t.Errorf("got %d failures, want 4: %v", len(fails), fails)
	}
}

func TestDigestCoversEveryField(t *testing.T) {
	base := []tapesys.RequestMetrics{validRequest(tape.DefaultHardware())}
	d := digestRequests(base)
	for _, corrupt := range []func(m *tapesys.RequestMetrics){
		func(m *tapesys.RequestMetrics) { m.Response = math.Nextafter(m.Response, 1e300) },
		func(m *tapesys.RequestMetrics) { m.RobotWait = 1 },
		func(m *tapesys.RequestMetrics) { m.MountedRatio = 0.5 },
		func(m *tapesys.RequestMetrics) { m.FailedBytes = 1 },
		func(m *tapesys.RequestMetrics) { m.TimedOut = true },
	} {
		ms := slices.Clone(base)
		corrupt(&ms[0])
		if digestRequests(ms) == d {
			t.Errorf("digest unchanged by %+v", ms[0])
		}
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "catalog.group", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "tapesys.submit", Start: 30, End: 90},
		{ID: 3, Parent: 2, Name: "inner", Start: 40, End: 50},
	}
	self, count := tr.selfTimes()
	want := map[string]float64{"request": 20e-9, "catalog.group": 20e-9, "tapesys.submit": 50e-9, "inner": 10e-9}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-15 || count[name] != 1 {
			t.Errorf("%s: self %g count %d, want %g and 1", name, self[name], count[name], w)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {1, 5}, {0.99, 4.96}} {
		if got := quantile(slices.Clone(xs), c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestRanShare(t *testing.T) {
	// 3 s of CPU time used and 1 s stolen: the process got 3/4 of what
	// it asked for.
	if got := ranShare(3, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("ranShare(3, 1) = %g, want 0.75", got)
	}
	for _, c := range [][2]float64{{3, 0}, {0, 1}, {3, -1}} {
		if got := ranShare(c[0], c[1]); got != 1 {
			t.Errorf("ranShare%v = %g, want 1", c, got)
		}
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer()...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s has unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		// Each workload records why it was chosen and what it bypasses.
		if !strings.Contains(w.Why, "bypasses") || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters naming what it bypasses: %q", w.Name, w.Why)
		}
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(bf.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] = %s %s, program %s %s", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %g better %q", m.Name, m.Bound, m.Better)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Better != "lower" || bf.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first, be lower-is-better and have the largest bound")
	}
	layers := perLayer()
	if len(bf.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(bf.PerLayer), len(layers))
	}
	for i, m := range bf.PerLayer {
		if m.Name != layers[i].Name || m.Unit != layers[i].Unit {
			t.Errorf("per_layer[%d] = %s %s, program %s %s", i, m.Name, m.Unit, layers[i].Name, layers[i].Unit)
		}
	}
}
