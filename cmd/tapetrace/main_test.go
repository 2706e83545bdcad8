package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/tape"
	"paralleltape/internal/tapesys"
	"paralleltape/internal/trace"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

// genTrace runs a small fixed simulation through the public API and
// writes its JSONL trace to a temp file. Same seed, same bytes — the
// breakdown golden below pins the analysis of this exact run.
func genTrace(t *testing.T) string {
	t.Helper()
	hw := tape.DefaultHardware()
	hw.Libraries = 2
	hw.DrivesPerLib = 3
	hw.TapesPerLib = 20
	hw.Capacity = 32 * units.MB
	w, err := workload.Generate(workload.Params{
		NumObjects:  300,
		NumRequests: 30,
		MinObjSize:  1 * units.MB,
		MaxObjSize:  8 * units.MB,
		ObjShape:    1.1,
		MinReqLen:   4,
		MaxReqLen:   12,
		ReqLenShape: 1,
		Alpha:       0.3,
	}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := placement.ParallelBatch{M: 2}.Place(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tapesys.New(hw, pr)
	if err != nil {
		t.Fatal(err)
	}
	buf := s.EnableTrace(0)
	stream, err := workload.NewRequestStream(w, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := s.Submit(stream.Next()); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := trace.WriteJSONL(&out, buf.Events); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// analyze runs the CLI and returns its output.
func analyze(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, nil); err != nil {
		t.Fatalf("tapetrace %v: %v", args, err)
	}
	return out.String()
}

func TestBreakdownGolden(t *testing.T) {
	got := analyze(t, "breakdown", genTrace(t))
	golden := filepath.Join("testdata", "breakdown_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden breakdown updated (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("breakdown differs from golden — the analysis output changed.\n"+
			"If intentional, regenerate with UPDATE_GOLDEN=1.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestBreakdownCSV(t *testing.T) {
	out := analyze(t, "breakdown", "-csv", genTrace(t))
	if !strings.HasPrefix(out, "phase,total_s,share,mean_s,p50_s,p95_s,p99_s,max_s\n") {
		t.Errorf("csv header wrong: %.80s", out)
	}
	for _, frag := range []string{"\nqueue,", "\ntransfer,", "\nrobot-move,"} {
		if !strings.Contains(out, frag) {
			t.Errorf("csv breakdown missing %q:\n%s", frag, out)
		}
	}
}

func TestSlowest(t *testing.T) {
	out := analyze(t, "slowest", "-n", "2", genTrace(t))
	if got := strings.Count(out, "request "); got != 2 {
		t.Errorf("slowest -n 2 printed %d requests:\n%s", got, out)
	}
	for _, frag := range []string{"critical path:", "blame:", "serve", "tape "} {
		if !strings.Contains(out, frag) {
			t.Errorf("slowest output missing %q:\n%s", frag, out)
		}
	}
}

func TestTimeline(t *testing.T) {
	out := analyze(t, "timeline", genTrace(t))
	if !strings.HasPrefix(out, "series,name,t,depth,start,end\n") {
		t.Errorf("timeline header wrong: %.80s", out)
	}
	for _, frag := range []string{"busy,L0.D", "busy,robot-0,"} {
		if !strings.Contains(out, frag) {
			t.Errorf("timeline missing %q:\n%s", frag, out)
		}
	}
}

func TestStdinDash(t *testing.T) {
	raw, err := os.ReadFile(genTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"breakdown", "-"}, &out, bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "requests: 25") {
		t.Errorf("stdin breakdown wrong:\n%s", out.String())
	}
}

func TestHelp(t *testing.T) {
	out := analyze(t, "help")
	for _, frag := range []string{"breakdown", "slowest", "timeline"} {
		if !strings.Contains(out, frag) {
			t.Errorf("help missing %q", frag)
		}
	}
}

func TestErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out, nil); err == nil {
		t.Error("missing command accepted")
	}
	if err := run([]string{"nope", "x.jsonl"}, &out, nil); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run([]string{"breakdown"}, &out, nil); err == nil {
		t.Error("missing trace argument accepted")
	}
	if err := run([]string{"breakdown", "does-not-exist.jsonl"}, &out, nil); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{not json}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"breakdown", bad}, &out, nil); err == nil {
		t.Error("malformed trace accepted")
	}
	truncated := filepath.Join(t.TempDir(), "trunc.jsonl")
	if err := os.WriteFile(truncated, []byte(`{"t":0,"kind":"submit","req":0,"bytes":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"breakdown", truncated}, &out, nil); err == nil {
		t.Error("trace with unterminated request accepted")
	}
	// Unchecked, a negative count prints nothing and exits 0.
	if err := run([]string{"slowest", "-n", "-3", genTrace(t)}, &out, nil); err == nil || !strings.Contains(err.Error(), "-n") {
		t.Errorf("slowest -n -3: err = %v, want an error naming the flag", err)
	}
}

// TestAnalysisDeterminism renders the same trace twice and across the two
// entry paths (file vs stdin); bytes must match.
func TestAnalysisDeterminism(t *testing.T) {
	path := genTrace(t)
	a := analyze(t, "breakdown", path)
	b := analyze(t, "breakdown", path)
	if a != b {
		t.Error("breakdown not deterministic")
	}
}
