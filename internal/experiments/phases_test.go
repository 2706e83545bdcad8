package experiments

import (
	"bytes"
	"strings"
	"testing"

	"paralleltape/internal/telemetry"
)

// TestPhasesShape checks the critical-path attribution exhibit: all
// three schemes produce a full blame table, the transfer blame share is
// a valid fraction, and cluster probability — which serves whole
// requests from few mounted tapes — carries at least as much transfer
// blame as parallel batch, whose transfers overlap across drives.
func TestPhasesShape(t *testing.T) {
	rep, err := Phases(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("phases rows = %d, want 3", len(rep.Rows))
	}
	shares := map[string]float64{}
	for _, r := range rep.Rows {
		if r.X < 0 || r.X > 1 {
			t.Errorf("%s: transfer blame share %v outside [0,1]", r.Scheme, r.X)
		}
		shares[r.Scheme] = r.X
	}
	if shares["cluster-probability"] < shares["parallel-batch"] {
		t.Errorf("cluster-probability transfer blame %v below parallel-batch %v",
			shares["cluster-probability"], shares["parallel-batch"])
	}
	var buf bytes.Buffer
	if err := rep.Table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"robot-wait", "rewind", "seek", "transfer", "parallel-batch"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("phases table missing %q:\n%s", frag, buf.String())
		}
	}
}

// TestPhasesDeterministic renders the exhibit twice; the tables must be
// byte-identical (the span analyzer inherits the runner's determinism
// contract).
func TestPhasesDeterministic(t *testing.T) {
	render := func() string {
		rep, err := Phases(quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Table.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("phases exhibit not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// renderPhases runs the exhibit and renders its table, failing on a run
// error.
func renderPhases(t *testing.T, cfg Config) string {
	t.Helper()
	rep, err := Phases(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestPhasesUnderFaults checks that Config.Faults reaches the phases
// runs, as it reaches every other exhibit's: drive and robot failures
// change where response time goes, so the blame table must change.
func TestPhasesUnderFaults(t *testing.T) {
	cfg := quickCfg()
	healthy := renderPhases(t, cfg)
	cfg.Faults = chaosProfile(cfg.Seed, 2500)
	if faulty := renderPhases(t, cfg); faulty == healthy {
		t.Errorf("phases table under a fault profile equals the healthy one:\n%s", faulty)
	}
}

// TestPhasesTelemetry checks that a shared collector counts the three
// phases runs and their requests like any other runs: one seed each,
// whatever Config.Seeds says.
func TestPhasesTelemetry(t *testing.T) {
	cfg := quickCfg()
	cfg.Requests = 10
	cfg.Seeds = 2
	cfg.Telemetry = telemetry.NewCollector(telemetry.NewRegistry())
	renderPhases(t, cfg)
	col := cfg.Telemetry
	if got := col.RunsTarget.Value(); got != 3 {
		t.Errorf("runs target = %d, want 3", got)
	}
	if got := col.RunsCompleted.Value(); got != 3 {
		t.Errorf("runs completed = %d, want 3", got)
	}
	const reqs = 3 * 10
	if got := col.RequestsTarget.Value(); got != reqs {
		t.Errorf("requests target = %d, want %d", got, reqs)
	}
	if got := col.Completed.Value(); got != reqs {
		t.Errorf("requests completed = %d, want %d", got, reqs)
	}
}
