package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"paralleltape/internal/placement"
	"paralleltape/internal/telemetry"
)

// quickCfg returns the reduced-scale config used for all tests here; full
// paper scale is exercised by cmd/tapebench and the root bench harness.
func quickCfg() Config {
	c := Quick()
	c.Workers = 2
	return c
}

// statsBy collects rows of a report into scheme → X → stats.
func statsBy(rep *Report) map[string]map[float64]Row {
	out := map[string]map[float64]Row{}
	for _, r := range rep.Rows {
		if out[r.Scheme] == nil {
			out[r.Scheme] = map[float64]Row{}
		}
		out[r.Scheme][r.X] = r
	}
	return out
}

func TestTable1(t *testing.T) {
	rep, err := Table1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Table.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"7.6", "80.00 MB/s", "98/49", "8", "3"} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("table1 missing %q:\n%s", frag, buf.String())
		}
	}
}

func TestFig5Shape(t *testing.T) {
	rep, err := Fig5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	// The paper's headline for Figure 5: m=1 starves the switch path; the
	// jump to m=2 is large. Check per alpha curve.
	curves := map[string][]Row{}
	for _, r := range rep.Rows {
		curves[r.Label] = append(curves[r.Label], r)
	}
	if len(curves) < 2 {
		t.Fatalf("expected several alpha curves, got %d", len(curves))
	}
	sawBigJump := false
	for label, rows := range curves {
		var m1, m2 float64
		for _, r := range rows {
			if r.X == 1 {
				m1 = r.Stats.MeanBandwidth
			}
			if r.X == 2 {
				m2 = r.Stats.MeanBandwidth
			}
		}
		if m1 <= 0 || m2 <= 0 {
			t.Fatalf("%s: missing m=1/m=2 points", label)
		}
		// Every curve improves from m=1 to m=2; the low-skew curves jump
		// hard (the paper's headline), high skew less so.
		if m2 < m1 {
			t.Errorf("%s: m=2 below m=1: %v vs %v", label, m1, m2)
		}
		if m2 > m1*1.2 {
			sawBigJump = true
		}
	}
	if !sawBigJump {
		t.Error("no alpha curve shows the m=1→2 jump")
	}
}

func TestFig6Shape(t *testing.T) {
	rep, err := Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	by := statsBy(rep)
	pb := by["parallel-batch"]
	op := by["object-probability"]
	cp := by["cluster-probability"]
	if len(pb) == 0 || len(op) == 0 || len(cp) == 0 {
		t.Fatal("missing scheme rows")
	}
	// Parallel batch must beat both baselines at every alpha (small
	// tolerance for the reduced-scale noise floor).
	for alpha, r := range pb {
		if r.Stats.MeanBandwidth < op[alpha].Stats.MeanBandwidth*0.97 {
			t.Errorf("alpha=%v: parallel-batch %v below object-probability %v",
				alpha, r.Stats.MeanBandwidth, op[alpha].Stats.MeanBandwidth)
		}
		if r.Stats.MeanBandwidth < cp[alpha].Stats.MeanBandwidth {
			t.Errorf("alpha=%v: parallel-batch %v below cluster-probability %v",
				alpha, r.Stats.MeanBandwidth, cp[alpha].Stats.MeanBandwidth)
		}
	}
	// Skew helps parallel batch: alpha=1 beats alpha=0 clearly.
	if pb[1.0].Stats.MeanBandwidth < pb[0.0].Stats.MeanBandwidth*1.1 {
		t.Errorf("parallel-batch does not benefit from skew: %v vs %v",
			pb[0.0].Stats.MeanBandwidth, pb[1.0].Stats.MeanBandwidth)
	}
	// Cluster probability is insensitive to skew relative to parallel
	// batch's gain.
	cpGain := cp[1.0].Stats.MeanBandwidth / cp[0.0].Stats.MeanBandwidth
	pbGain := pb[1.0].Stats.MeanBandwidth / pb[0.0].Stats.MeanBandwidth
	if cpGain > pbGain {
		t.Errorf("cluster-probability gained more from skew (%v) than parallel batch (%v)", cpGain, pbGain)
	}
}

func TestFig7Shape(t *testing.T) {
	rep, err := Fig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	var extremeRows []Row
	bySize := map[string]map[string]Row{}
	for _, r := range rep.Rows {
		if r.Label == "extreme(all-mounted)" {
			extremeRows = append(extremeRows, r)
			continue
		}
		if bySize[r.Label] == nil {
			bySize[r.Label] = map[string]Row{}
		}
		bySize[r.Label][r.Scheme] = r
	}
	// Parallel batch best at every size point (5% tolerance at this
	// reduced scale; the full-scale margins are wider, see
	// EXPERIMENTS.md).
	for size, rows := range bySize {
		pb := rows["parallel-batch"].Stats.MeanBandwidth
		for scheme, r := range rows {
			if scheme == "parallel-batch" {
				continue
			}
			if pb < r.Stats.MeanBandwidth*0.95 {
				t.Errorf("%s: parallel-batch %v below %s %v", size, pb, scheme, r.Stats.MeanBandwidth)
			}
		}
	}
	// Extreme case: everything fits mounted → no switches for any scheme,
	// and cluster probability's transfer share far exceeds parallel
	// batch's (the paper reports 62% vs 19%).
	if len(extremeRows) != 3 {
		t.Fatalf("extreme rows: %d", len(extremeRows))
	}
	var cpShare, pbShare float64
	for _, r := range extremeRows {
		if r.Stats.MeanSwitches > 0.01 {
			t.Errorf("extreme case: %s still switches (%v/request)", r.Scheme, r.Stats.MeanSwitches)
		}
		share := r.Stats.MeanTransfer / r.Stats.MeanResponse
		switch r.Scheme {
		case "cluster-probability":
			cpShare = share
		case "parallel-batch":
			pbShare = share
		}
	}
	// At full scale cluster probability's transfer share far exceeds
	// parallel batch's (paper: 62% vs 19%; our full-scale run: 64% vs
	// 36% — see EXPERIMENTS.md). At this reduced scale requests shrink
	// quadratically relative to seek distances, compressing the contrast,
	// so only the ordering is asserted.
	if cpShare < pbShare-0.05 {
		t.Errorf("extreme transfer shares: cluster-probability %v below parallel-batch %v",
			cpShare, pbShare)
	}
}

func TestFig8Shape(t *testing.T) {
	rep, err := Fig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	by := statsBy(rep)
	pb := by["parallel-batch"]
	op := by["object-probability"]
	cp := by["cluster-probability"]
	// Scaling: parallel batch and object probability gain substantially
	// from 1 → 5 libraries; cluster probability gains far less.
	pbGain := pb[5].Stats.MeanBandwidth / pb[1].Stats.MeanBandwidth
	opGain := op[5].Stats.MeanBandwidth / op[1].Stats.MeanBandwidth
	cpGain := cp[5].Stats.MeanBandwidth / cp[1].Stats.MeanBandwidth
	if pbGain < 1.5 {
		t.Errorf("parallel-batch does not scale with libraries: gain %v", pbGain)
	}
	if opGain < 1.3 {
		t.Errorf("object-probability does not scale with libraries: gain %v", opGain)
	}
	if cpGain > pbGain*0.75 {
		t.Errorf("cluster-probability scales too well: gain %v vs parallel batch %v", cpGain, pbGain)
	}
	// Parallel batch is best at 1–2 libraries and within 10% of the best
	// beyond that: Figure 8's fit-one-library constraint lowers capacity
	// pressure as libraries are added, which flatters object
	// probability's full-width scatter in our motion model (see
	// EXPERIMENTS.md).
	for n, r := range pb {
		tolerance := 0.97
		if n >= 3 {
			tolerance = 0.90
		}
		if r.Stats.MeanBandwidth < op[n].Stats.MeanBandwidth*tolerance ||
			r.Stats.MeanBandwidth < cp[n].Stats.MeanBandwidth*tolerance {
			t.Errorf("libraries=%v: parallel-batch %v too far below best (op %v, cp %v)",
				n, r.Stats.MeanBandwidth, op[n].Stats.MeanBandwidth, cp[n].Stats.MeanBandwidth)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	rep, err := Fig9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	rows := map[string]Row{}
	for _, r := range rep.Rows {
		rows[r.Scheme] = r
	}
	op, cp, pb := rows["object-probability"], rows["cluster-probability"], rows["parallel-batch"]
	// Object probability: the longest switch time of the three, the best
	// (smallest) transfer time, and more switches than anyone.
	if op.Stats.MeanSwitch < cp.Stats.MeanSwitch || op.Stats.MeanSwitch < pb.Stats.MeanSwitch {
		t.Errorf("object-probability switch time %v not the worst (cp %v, pb %v)",
			op.Stats.MeanSwitch, cp.Stats.MeanSwitch, pb.Stats.MeanSwitch)
	}
	if op.Stats.MeanTransfer > cp.Stats.MeanTransfer || op.Stats.MeanTransfer > pb.Stats.MeanTransfer {
		t.Errorf("object-probability transfer time %v not the best (cp %v, pb %v)",
			op.Stats.MeanTransfer, cp.Stats.MeanTransfer, pb.Stats.MeanTransfer)
	}
	if op.Stats.MeanSwitches <= pb.Stats.MeanSwitches {
		t.Errorf("object-probability switches %v not above parallel batch %v",
			op.Stats.MeanSwitches, pb.Stats.MeanSwitches)
	}
	// Cluster probability: transfer-dominated response.
	if cp.Stats.MeanTransfer < 0.5*cp.Stats.MeanResponse {
		t.Errorf("cluster-probability not transfer-dominated: %v of %v",
			cp.Stats.MeanTransfer, cp.Stats.MeanResponse)
	}
	// Parallel batch: best response time.
	if pb.Stats.MeanResponse > op.Stats.MeanResponse*1.03 || pb.Stats.MeanResponse > cp.Stats.MeanResponse {
		t.Errorf("parallel-batch response %v not the best (op %v, cp %v)",
			pb.Stats.MeanResponse, op.Stats.MeanResponse, cp.Stats.MeanResponse)
	}
}

func TestTechShape(t *testing.T) {
	rep, err := Tech(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	// Faster drives must increase every scheme's bandwidth.
	base := map[string]float64{}
	fast := map[string]float64{}
	for _, r := range rep.Rows {
		if r.Label == "rate x1, capacity x1" {
			base[r.Scheme] = r.Stats.MeanBandwidth
		}
		if r.Label == "rate x4, capacity x1" {
			fast[r.Scheme] = r.Stats.MeanBandwidth
		}
	}
	for scheme, b := range base {
		if fast[scheme] <= b {
			t.Errorf("%s: 4x transfer rate did not help (%v -> %v)", scheme, b, fast[scheme])
		}
	}
	// Parallel batch stays the best scheme at every technology point.
	byLabel := map[string]map[string]float64{}
	for _, r := range rep.Rows {
		if byLabel[r.Label] == nil {
			byLabel[r.Label] = map[string]float64{}
		}
		byLabel[r.Label][r.Scheme] = r.Stats.MeanBandwidth
	}
	for label, schemes := range byLabel {
		pb := schemes["parallel-batch"]
		for scheme, bw := range schemes {
			if scheme == "parallel-batch" {
				continue
			}
			if pb < bw*0.95 {
				t.Errorf("%s: parallel-batch %v below %s %v", label, pb, scheme, bw)
			}
		}
	}
}

func TestRobustnessShape(t *testing.T) {
	rep, err := Robustness(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	// Relative order invariant: parallel batch ≥ both baselines in every
	// variant (tolerance for reduced scale).
	byVariant := map[string]map[string]Row{}
	for _, r := range rep.Rows {
		if byVariant[r.Label] == nil {
			byVariant[r.Label] = map[string]Row{}
		}
		byVariant[r.Label][r.Scheme] = r
	}
	for variant, rows := range byVariant {
		if strings.Contains(variant, "denser") {
			// Densified co-access changes the regime (see EXPERIMENTS.md);
			// only completion is asserted for it.
			continue
		}
		pb := rows["parallel-batch"].Stats.MeanBandwidth
		for scheme, r := range rows {
			if scheme == "parallel-batch" {
				continue
			}
			if pb < r.Stats.MeanBandwidth*0.95 {
				t.Errorf("%s: parallel-batch %v below %s %v",
					variant, pb, scheme, r.Stats.MeanBandwidth)
			}
		}
	}
}

func TestAblationShape(t *testing.T) {
	rep, err := Ablation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	rows := map[string]Row{}
	for _, r := range rep.Rows {
		rows[r.Label] = r
	}
	full := rows["full parallel-batch"].Stats.MeanBandwidth
	if full <= 0 {
		t.Fatal("full parallel-batch missing")
	}
	// Removing clustering must hurt: the refinement is the scheme's core.
	if noc := rows["no clustering (density only)"].Stats.MeanBandwidth; noc > full*1.02 {
		t.Errorf("removing clustering helped: %v vs %v", noc, full)
	}
	// Never splitting clusters sacrifices parallel transfer.
	if nos := rows["no cluster splitting"].Stats.MeanBandwidth; nos > full*1.02 {
		t.Errorf("disabling cluster splitting helped: %v vs %v", nos, full)
	}
	// Naive round-robin spread must not beat the full scheme.
	if rr := rows["round-robin spread"].Stats.MeanBandwidth; rr > full {
		t.Errorf("round-robin spread beat parallel batch: %v vs %v", rr, full)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("nope", quickCfg()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestReportErrPropagation(t *testing.T) {
	rep := &Report{ID: "x", Rows: []Row{{Label: "l", Scheme: "s"}}}
	if rep.Err() != nil {
		t.Error("clean report reported error")
	}
	rep.Rows = append(rep.Rows, Row{Label: "bad", Scheme: "s", Err: errBoom{}})
	if rep.Err() == nil {
		t.Error("error row not propagated")
	}
}

// TestTableErrorRow checks the one error-row rule every exhibit renders
// through: a failed run keeps its label cells, then "ERROR: …".
func TestTableErrorRow(t *testing.T) {
	rows := []Row{{Label: "ok", Scheme: "s", X: 1}, {Label: "bad", Scheme: "s", X: 2, Err: errBoom{}}}
	tab := table("title", []string{"x", "label", "value", "more"}, 2, rows, func(r Row) []string {
		return []string{fmt.Sprintf("%.0f", r.X), r.Label, "v", "w"}
	})
	want := [][]string{{"1", "ok", "v", "w"}, {"2", "bad", "ERROR: boom", ""}}
	if !reflect.DeepEqual(tab.Rows, want) {
		t.Errorf("table rows = %q, want %q", tab.Rows, want)
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

// TestChaosQuickSeed53Completes pins a recovery fix. At Quick scale with
// seed 53, the mtbf 2500 s object-probability run abandoned a tape group
// after its last retry while another group of the same library still
// waited in the queue, every other drive of the library was down, and no
// repair wakeup was armed; the engine drained with the request open and
// the row carried "did not complete".
func TestChaosQuickSeed53Completes(t *testing.T) {
	cfg := Quick()
	cfg.Seed = 53
	rep, err := Chaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigBadScale(t *testing.T) {
	cfg := quickCfg()
	cfg.Scale = 0
	if _, err := Fig6(cfg); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestDeterministicReports(t *testing.T) {
	a, err := Fig9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := a.Table.Render(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.Table.Render(&bufB); err != nil {
		t.Fatal(err)
	}
	if bufA.String() != bufB.String() {
		t.Errorf("fig9 not reproducible:\n%s\nvs\n%s", bufA.String(), bufB.String())
	}
}

// TestSweepTelemetry checks the live-metric plumbing: a sweep with a
// shared collector maintains the run/request targets and completion
// counters, and — the determinism guard at the sweep level — produces
// exactly the same rows as the same sweep with telemetry off. A batch
// whose runs simulate different request counts (Robustness's shape) must
// keep the requests target equal to the count completed.
func TestSweepTelemetry(t *testing.T) {
	cfg := quickCfg()
	cfg.Requests = 5

	base, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	cfg.Telemetry = telemetry.NewCollector(reg)
	traced, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}

	col := cfg.Telemetry
	runs := int64(len(traced.Rows))
	if got := col.RunsTarget.Value(); got != runs {
		t.Errorf("runs target = %d, want %d", got, runs)
	}
	if got := col.RunsCompleted.Value(); got != uint64(runs) {
		t.Errorf("runs completed = %d, want %d", got, runs)
	}
	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	wantReqs := uint64(len(traced.Rows) * cfg.Requests * seeds)
	if got := col.Completed.Value(); got != wantReqs {
		t.Errorf("requests completed = %d, want %d", got, wantReqs)
	}
	if got := col.RequestsTarget.Value(); got != int64(wantReqs) {
		t.Errorf("requests target = %d, want %d", got, wantReqs)
	}
	if col.Events.Value() == 0 || col.BytesMoved.Value() == 0 {
		t.Error("collector saw no events/bytes")
	}
	if col.ResponseSeconds.Count() != wantReqs {
		t.Errorf("response histogram count = %d, want %d", col.ResponseSeconds.Count(), wantReqs)
	}

	if len(base.Rows) != len(traced.Rows) {
		t.Fatalf("row count changed with telemetry: %d vs %d", len(base.Rows), len(traced.Rows))
	}
	for i := range base.Rows {
		if base.Rows[i].Stats != traced.Rows[i].Stats {
			t.Errorf("row %d stats changed with telemetry on:\n%+v\nvs\n%+v",
				i, base.Rows[i].Stats, traced.Rows[i].Stats)
		}
	}

	w, err := cfg.baseWorkload(cfg.target(fig9ReqBytes))
	if err != nil {
		t.Fatal(err)
	}
	mixed := cfg
	mixed.Telemetry = telemetry.NewCollector(telemetry.NewRegistry())
	counts := []int{3, 0, 7} // 0 simulates cfg.Requests
	var batch []Run
	for _, n := range counts {
		batch = append(batch, Run{Label: "mixed", Scheme: placement.ObjectProbability{K: cfg.K}, W: w, HW: cfg.HW, Requests: n})
	}
	for i, row := range mixed.RunAll(batch) {
		if row.Err != nil {
			t.Fatalf("mixed row %d: %v", i, row.Err)
		}
		n := counts[i]
		if n == 0 {
			n = cfg.Requests
		}
		if row.Stats.Requests != n*seeds {
			t.Errorf("mixed row %d simulated %d requests, want %d", i, row.Stats.Requests, n*seeds)
		}
	}
	mixedReqs := (3 + cfg.Requests + 7) * seeds
	if got := mixed.Telemetry.RequestsTarget.Value(); got != int64(mixedReqs) {
		t.Errorf("mixed batch: requests target = %d, want %d", got, mixedReqs)
	}
	if got := mixed.Telemetry.Completed.Value(); got != uint64(mixedReqs) {
		t.Errorf("mixed batch: requests completed = %d, want %d", got, mixedReqs)
	}
}
