package main

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"paralleltape"
)

func tinyCfg() paralleltape.ExperimentConfig {
	cfg := paralleltape.QuickExperimentConfig()
	cfg.Requests = 5
	cfg.Workers = 2
	return cfg
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	reps, err := run(&buf, "fig9", tinyCfg(), false, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].ID != "fig9" {
		t.Errorf("reports = %v, want one fig9", reps)
	}
	out := buf.String()
	for _, frag := range []string{"Figure 9", "parallel-batch", "completed in"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunCSV(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(&buf, "table1", tinyCfg(), true, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "parameter,value") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if strings.Contains(out, "completed in") {
		t.Error("CSV output contains the trailer line")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(&buf, "nope", tinyCfg(), false, false); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestBenchResultJSON regenerates one exhibit and checks the -json
// benchmark-result document: schema identity, environment fields, the
// micro-benchmark measurements, and the per-scheme bandwidth map.
func TestBenchResultJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs testing.Benchmark (seconds)")
	}
	t.Setenv("TAPEBENCH_COMMIT", "deadbeef")
	cfg := tinyCfg()
	var tbl bytes.Buffer
	reps, err := run(&tbl, "fig9", cfg, false, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeBenchResult(&buf, "fig9", cfg, true, 1500*time.Millisecond, reps); err != nil {
		t.Fatal(err)
	}

	var res benchResult
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if res.Schema != benchResultSchema {
		t.Errorf("schema = %q, want %q", res.Schema, benchResultSchema)
	}
	if res.GoVersion != runtime.Version() {
		t.Errorf("go_version = %q, want %q", res.GoVersion, runtime.Version())
	}
	if res.Commit != "deadbeef" {
		t.Errorf("commit = %q, want env override", res.Commit)
	}
	if !res.Quick || res.Experiment != "fig9" || res.WallSeconds != 1.5 {
		t.Errorf("config echo wrong: %+v", res)
	}
	wantNames := []string{"simulate-request", "simulate-request-traced",
		"placement-parallel-batch", "placement-cluster",
		"placement-organpipe", "placement-loadbalance",
		"engine-schedule", "engine-schedule-skewed",
		"engine-schedule-churn"}
	if len(res.Benchmarks) != len(wantNames) {
		t.Fatalf("benchmarks = %d, want %d", len(res.Benchmarks), len(wantNames))
	}
	for i, b := range res.Benchmarks {
		if b.Name != wantNames[i] {
			t.Errorf("benchmark %d = %q, want %q", i, b.Name, wantNames[i])
		}
		if b.Iterations <= 0 || b.NsPerOp <= 0 {
			t.Errorf("benchmark %s has no measurement: %+v", b.Name, b)
		}
	}
	// The untraced Submit path allocates strictly less than the traced one.
	if res.Benchmarks[0].AllocsPerOp > res.Benchmarks[1].AllocsPerOp {
		t.Errorf("untraced allocs %d > traced %d",
			res.Benchmarks[0].AllocsPerOp, res.Benchmarks[1].AllocsPerOp)
	}
	if bw := res.BandwidthMBpsByScheme["parallel-batch"]; bw <= 0 {
		t.Errorf("bandwidth_mbps_by_scheme missing parallel-batch: %v", res.BandwidthMBpsByScheme)
	}
	// Exhibits embed the report's own JSON form.
	if len(res.Exhibits) != 1 {
		t.Fatalf("exhibits = %d, want 1", len(res.Exhibits))
	}
	var exhibit struct {
		ID   string `json:"id"`
		Rows []struct {
			Scheme        string  `json:"scheme"`
			BandwidthMBps float64 `json:"bandwidth_mbps"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(res.Exhibits[0], &exhibit); err != nil {
		t.Fatal(err)
	}
	if exhibit.ID != "fig9" || len(exhibit.Rows) != 3 {
		t.Errorf("exhibit: %+v", exhibit)
	}
	for _, r := range exhibit.Rows {
		if r.BandwidthMBps <= 0 {
			t.Errorf("row %s has no bandwidth", r.Scheme)
		}
	}
}

func TestDetectCommitFallback(t *testing.T) {
	t.Setenv("TAPEBENCH_COMMIT", "")
	if c := detectCommit(); c == "" {
		t.Error("detectCommit returned empty string")
	}
	t.Setenv("TAPEBENCH_COMMIT", "abc123")
	if c := detectCommit(); c != "abc123" {
		t.Errorf("detectCommit = %q, want env override", c)
	}
}
