package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runSmall drives run() with small-workload defaults, optionally mutated.
func runSmall(t *testing.T, scheme string, mutate func(o *options)) error {
	t.Helper()
	o := options{
		scheme: scheme, m: 2, epochs: 2, requests: 5, seed: 1, alpha: 0.3,
		objects: 300, nRequests: 15, libraries: 2, drives: 4, tapes: 16,
		capacity: "20GB", rate: "80MB", repair: 600,
	}
	if mutate != nil {
		mutate(&o)
	}
	return run(o)
}

func TestRunAllSchemes(t *testing.T) {
	for _, scheme := range []string{
		"parallel-batch", "object-probability", "cluster-probability", "round-robin", "online",
	} {
		if err := runSmall(t, scheme, nil); err != nil {
			t.Errorf("%s: %v", scheme, err)
		}
	}
}

func TestRunUnknownScheme(t *testing.T) {
	if err := runSmall(t, "nope", nil); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestRunFlagsVariants(t *testing.T) {
	if err := runSmall(t, "parallel-batch", func(o *options) {
		o.csv = true
	}); err != nil {
		t.Errorf("csv: %v", err)
	}
	if err := runSmall(t, "parallel-batch", func(o *options) {
		o.verbose = true
		o.util = true
		o.estimate = true
		o.describe = true
		o.events = 5
		o.target = "30GB"
	}); err != nil {
		t.Errorf("verbose/util/estimate/events: %v", err)
	}
}

func TestRunBadInputs(t *testing.T) {
	if err := runSmall(t, "parallel-batch", func(o *options) { o.capacity = "12XB" }); err == nil {
		t.Error("bad capacity accepted")
	}
	if err := runSmall(t, "parallel-batch", func(o *options) { o.rate = "" }); err == nil {
		t.Error("bad rate accepted")
	}
	if err := runSmall(t, "parallel-batch", func(o *options) { o.target = "zzz" }); err == nil {
		t.Error("bad target accepted")
	}
	if err := runSmall(t, "parallel-batch", func(o *options) { o.libraries = 0 }); err == nil {
		t.Error("zero libraries accepted")
	}
	// Unchecked, a NaN alpha reaches dist.NewZipf and panics.
	if err := runSmall(t, "parallel-batch", func(o *options) { o.alpha = math.NaN() }); err == nil || !strings.Contains(err.Error(), "Alpha") {
		t.Errorf("NaN alpha: err = %v, want an error naming Alpha", err)
	}
	// Negative counts and durations are errors: unchecked, -requests
	// panics in makeslice, -events, -explain and -progress are silently
	// ignored, and a negative -repair under -faults never finishes. So
	// are a zero -m and -epochs, which would run the default of 4.
	for _, c := range []struct {
		flag string
		set  func(o *options)
	}{
		{"requests", func(o *options) { o.requests = -3 }},
		{"events", func(o *options) { o.events = -2 }},
		{"explain", func(o *options) { o.explain = -2 }},
		{"progress", func(o *options) { o.progress = -5 * time.Second }},
		{"repair", func(o *options) { o.faults, o.mtbf, o.repair = true, 500, -600 }},
		{"repair", func(o *options) { o.faults, o.mtbf, o.repair = true, 500, 0 }},
		{"m", func(o *options) { o.m = 0 }},
		{"epochs", func(o *options) { o.scheme, o.epochs = "online", 0 }},
	} {
		err := runSmall(t, "parallel-batch", c.set)
		if err == nil || !strings.Contains(err.Error(), "-"+c.flag) {
			t.Errorf("bad -%s: err = %v, want an error naming the flag", c.flag, err)
		}
	}
}

func TestRunFromWorkloadTrace(t *testing.T) {
	// Write a tiny workload trace and replay it.
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	raw := `{"objects":[{"id":0,"size":1000000000},{"id":1,"size":2000000000}],` +
		`"requests":[{"id":0,"prob":1,"objects":[0,1]}]}`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSmall(t, "cluster-probability", func(o *options) {
		o.workload = path
		o.requests = 3
	}); err != nil {
		t.Errorf("workload replay: %v", err)
	}
	if err := runSmall(t, "parallel-batch", func(o *options) { o.workload = filepath.Join(dir, "missing.json") }); err == nil {
		t.Error("missing workload accepted")
	}
}

func TestRunTraceAndReportExports(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "run.jsonl")
	traceCSV := filepath.Join(dir, "run.csv")
	reportTxt := filepath.Join(dir, "report.txt")
	reportCSV := filepath.Join(dir, "report.csv")

	if err := runSmall(t, "parallel-batch", func(o *options) {
		o.tracePath = jsonl
		o.report = reportTxt
	}); err != nil {
		t.Fatalf("jsonl trace + text report: %v", err)
	}
	if err := runSmall(t, "parallel-batch", func(o *options) {
		o.tracePath = traceCSV
		o.report = reportCSV
	}); err != nil {
		t.Fatalf("csv trace + csv report: %v", err)
	}

	tr, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(tr, []byte(`{"t":0,"kind":"submit"`)) {
		t.Errorf("jsonl trace does not start with a submit event: %.80s", tr)
	}
	for _, frag := range []string{`"kind":"complete"`, `"kind":"serve-end"`} {
		if !bytes.Contains(tr, []byte(frag)) {
			t.Errorf("jsonl trace missing %s", frag)
		}
	}
	cs, err := os.ReadFile(traceCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(cs, []byte("t,kind,lib,drive,tape,req,span,bytes,dur,queue,name\n")) {
		t.Errorf("csv trace header wrong: %.80s", cs)
	}
	rep, err := os.ReadFile(reportTxt)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"run:", "components:", "per-drive timeline", "per-robot timeline",
		"per-phase breakdown (critical path)"} {
		if !strings.Contains(string(rep), frag) {
			t.Errorf("text report missing %q:\n%s", frag, rep)
		}
	}
	repCSV, err := os.ReadFile(reportCSV)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"section,key,value", "run,requests,5", "drive,", "robot,",
		"phase,name,total_s", "phase,seek,"} {
		if !strings.Contains(string(repCSV), frag) {
			t.Errorf("csv report missing %q:\n%s", frag, repCSV)
		}
	}
}

func TestRunCSVDetectionCaseInsensitive(t *testing.T) {
	dir := t.TempDir()
	traceUpper := filepath.Join(dir, "RUN.CSV")
	reportUpper := filepath.Join(dir, "REPORT.Csv")
	if err := runSmall(t, "parallel-batch", func(o *options) {
		o.tracePath = traceUpper
		o.report = reportUpper
	}); err != nil {
		t.Fatal(err)
	}
	tr, err := os.ReadFile(traceUpper)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(tr, []byte("t,kind,lib,drive,tape,req,span,bytes,dur,queue,name\n")) {
		t.Errorf("uppercase .CSV trace not written as CSV: %.80s", tr)
	}
	rep, err := os.ReadFile(reportUpper)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rep), "section,key,value") {
		t.Errorf("mixed-case .Csv report not written as CSV: %.80s", rep)
	}
}

// TestRunExplain drives -explain and checks the causal stories land on
// stdout: one block per requested request, each with a critical path.
func TestRunExplain(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := runSmall(t, "parallel-batch", func(o *options) { o.explain = 2 })
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	text := string(out)
	if got := strings.Count(text, "critical path:"); got != 2 {
		t.Errorf("-explain 2 printed %d critical paths:\n%s", got, text)
	}
	for _, frag := range []string{"slowest 2 requests", "blame:", "seek"} {
		if !strings.Contains(text, frag) {
			t.Errorf("-explain output missing %q:\n%s", frag, text)
		}
	}
}

func TestRunFailsFastOnUnwritableOutputs(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "no-such-dir", "out.jsonl")
	start := time.Now()
	if err := runSmall(t, "parallel-batch", func(o *options) {
		o.tracePath = bad
		o.requests = 5000 // a full run at this size takes far longer than the fail-fast budget
	}); err == nil {
		t.Error("unwritable -trace path accepted")
	}
	if err := runSmall(t, "parallel-batch", func(o *options) {
		o.report = filepath.Join(dir, "no-such-dir", "report.txt")
		o.requests = 5000
	}); err == nil {
		t.Error("unwritable -report path accepted")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("output validation took %v; should fail before simulating", elapsed)
	}
}

// TestRunMetricsMidRunScrape is the acceptance check for -metrics-addr: a
// scrape taken while the simulation is mid-flight must return well-formed
// Prometheus text and expvar JSON that reflect partial progress.
func TestRunMetricsMidRunScrape(t *testing.T) {
	var addr string
	scraped := false
	err := runSmall(t, "parallel-batch", func(o *options) {
		o.requests = 20
		o.metricsAddr = "127.0.0.1:0"
		o.notifyServe = func(a string) { addr = a }
		o.midRun = func() {
			scraped = true
			if addr == "" {
				t.Fatal("midRun fired before notifyServe")
			}
			prom := httpGet(t, "http://"+addr+"/metrics")
			for _, frag := range []string{
				"# TYPE tapesim_events_total counter",
				"tapesim_requests_target 20",
				"tapesim_requests_completed_total 10",
				"tapesim_response_seconds_count 10",
			} {
				if !strings.Contains(prom, frag) {
					t.Errorf("mid-run /metrics missing %q:\n%s", frag, prom)
				}
			}
			var vars map[string]any
			if err := json.Unmarshal([]byte(httpGet(t, "http://"+addr+"/debug/vars")), &vars); err != nil {
				t.Fatalf("mid-run /debug/vars is not valid JSON: %v", err)
			}
			tele, ok := vars["telemetry"].(map[string]any)
			if !ok {
				t.Fatalf("expvar missing telemetry object: %v", vars["telemetry"])
			}
			if got := tele["tapesim_requests_completed_total"]; got != float64(10) {
				t.Errorf("expvar completed = %v, want 10", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !scraped {
		t.Fatal("midRun hook never fired")
	}
}

// TestRunTelemetryDeterminism is the determinism guard: enabling telemetry
// must not change simulation results — the exported trace bytes for the
// same seed are identical with and without the collector attached.
func TestRunTelemetryDeterminism(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.jsonl")
	traced := filepath.Join(dir, "telemetry.jsonl")
	if err := runSmall(t, "parallel-batch", func(o *options) {
		o.tracePath = plain
	}); err != nil {
		t.Fatal(err)
	}
	if err := runSmall(t, "parallel-batch", func(o *options) {
		o.tracePath = traced
		o.metricsAddr = "127.0.0.1:0"
		o.progress = time.Hour // collector + progress goroutine attached, no output expected
	}); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(traced)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Error("trace bytes differ when telemetry is enabled; collector must be passive")
	}
}

// httpGet fetches a URL and returns the body, failing the test on any error.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
