package experiments

// phases.go is the critical-path phase-attribution exhibit
// (EXPERIMENTS.md "Critical-path phase attribution"): where Figure 9
// decomposes the *sum* of mechanical work per request, this exhibit
// replays the three schemes with tracing enabled, reconstructs every
// request's causal span tree (internal/spans), and blames each second of
// response time on exactly one phase of the critical path — the chain of
// operations that actually bounded the request. The two views disagree
// exactly where parallelism hides work: mechanical seconds that overlap
// the critical path of another drive cost nothing, and the blame table
// shows which phases the schemes truly pay for.

import (
	"fmt"

	"paralleltape/internal/metrics"
	"paralleltape/internal/rng"
	"paralleltape/internal/spans"
	"paralleltape/internal/tapesys"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

// phaseBreakdown places the run's workload, taking the scheme's
// clustering from cl, replays the placement with tracing on and returns
// the span-level aggregate. The request stream matches seed 0 of the
// shared runner (Config.execute), so the simulated work is the same work
// the other exhibits measure.
func (c Config) phaseBreakdown(run Run, cl *clusterEntry) (*spans.Breakdown, error) {
	sch, err := cl.resolve(run)
	if err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	pr, err := sch.Place(run.W, run.HW)
	if err != nil {
		return nil, fmt.Errorf("place: %w", err)
	}
	sys, err := tapesys.NewWithOptions(run.HW, pr, run.Opts)
	if err != nil {
		return nil, err
	}
	buf := sys.EnableTrace(0)
	stream, err := workload.NewRequestStream(run.W, rng.New(c.Seed^0x9E3779B97F4A7C15))
	if err != nil {
		return nil, err
	}
	n := c.requests(run)
	for i := 0; i < n; i++ {
		if _, err := sys.Submit(stream.Next()); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	sess, err := spans.Build(buf.Events)
	if err != nil {
		return nil, fmt.Errorf("span reconstruction: %w", err)
	}
	return spans.Aggregate(sess), nil
}

// Phases runs the critical-path attribution exhibit for the paper's
// three schemes at the Figure 9 request size (≈160 GB), so the blame
// shares are directly comparable with Figure 9's component sums.
func Phases(cfg Config) (*Report, error) {
	w, err := cfg.baseWorkload(cfg.target(fig9ReqBytes))
	if err != nil {
		return nil, err
	}
	var runs []Run
	for _, sch := range cfg.threeSchemes() {
		runs = append(runs, Run{Scheme: sch, W: w, HW: cfg.HW})
	}
	entries, _ := cfg.clusterings().claims(runs)
	t := metrics.NewTable(
		"Critical-path phase attribution (avg request ≈ 160 GB): share of response time blamed on each phase",
		"scheme", "response p95 s", "queue", "rewind", "robot-wait", "robot-move", "load", "seek", "transfer")
	var rows []Row
	for i, run := range runs {
		b, err := cfg.phaseBreakdown(run, entries[i])
		name := run.Scheme.Name()
		row := Row{Label: "phases", Scheme: name, Err: err}
		if err != nil {
			t.AddRow(name, "ERROR: "+err.Error())
			rows = append(rows, row)
			continue
		}
		t.AddRow(name, fmt.Sprintf("%.0f", b.Response.P95),
			units.Percent(b.Share(spans.PhaseQueue)),
			units.Percent(b.Share(spans.PhaseRewind)),
			units.Percent(b.Share(spans.PhaseRobotWait)),
			units.Percent(b.Share(spans.PhaseRobotMove)),
			units.Percent(b.Share(spans.PhaseLoad)),
			units.Percent(b.Share(spans.PhaseSeek)),
			units.Percent(b.Share(spans.PhaseTransfer)))
		// X carries the transfer blame share: the scheme separator in the
		// all-mounted regime and the quantity shape tests pin.
		row.X = b.Share(spans.PhaseTransfer)
		rows = append(rows, row)
	}
	return &Report{ID: "phases", Caption: "Critical-path phase attribution", Table: t, Rows: rows}, nil
}
