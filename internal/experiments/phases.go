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

	"paralleltape/internal/spans"
	"paralleltape/internal/units"
)

// Phases runs the critical-path attribution exhibit for the paper's
// three schemes at the Figure 9 request size (≈160 GB), so the blame
// shares are directly comparable with Figure 9's component sums. The
// three runs are ordinary runs of the shared runner, traced, with one
// seed: each replays the request stream of seed 0 of every other
// exhibit, under the Config's faults and request timeout.
func Phases(cfg Config) (*Report, error) {
	w, err := cfg.baseWorkload(cfg.target(fig9ReqBytes))
	if err != nil {
		return nil, err
	}
	var runs []Run
	for _, sch := range cfg.threeSchemes() {
		runs = append(runs, Run{Label: "phases", Scheme: sch, W: w, HW: cfg.HW})
	}
	cfg.Seeds = 1
	ran, bufs := cfg.runAll(runs, true)
	// Rows carry only label, scheme and X: the runs' session stats are
	// Figure 9's to report.
	rows := make([]Row, len(ran))
	blame := make(map[string]spans.Breakdown, len(ran))
	for i, r := range ran {
		rows[i] = Row{Label: r.Label, Scheme: r.Scheme, Err: r.Err}
		if r.Err != nil {
			continue
		}
		sess, err := spans.Build(bufs[i].Events)
		if err != nil {
			rows[i].Err = fmt.Errorf("span reconstruction: %w", err)
			continue
		}
		b := spans.Aggregate(sess)
		blame[r.Scheme] = *b
		// X carries the transfer blame share: the scheme separator in the
		// all-mounted regime and the quantity shape tests pin.
		rows[i].X = b.Share(spans.PhaseTransfer)
	}
	t := table("Critical-path phase attribution (avg request ≈ 160 GB): share of response time blamed on each phase",
		[]string{"scheme", "response p95 s", "queue", "rewind", "robot-wait", "robot-move", "load", "seek", "transfer"}, 1, rows,
		func(r Row) []string {
			b := blame[r.Scheme]
			return []string{r.Scheme, fmt.Sprintf("%.0f", b.Response.P95),
				units.Percent(b.Share(spans.PhaseQueue)),
				units.Percent(b.Share(spans.PhaseRewind)),
				units.Percent(b.Share(spans.PhaseRobotWait)),
				units.Percent(b.Share(spans.PhaseRobotMove)),
				units.Percent(b.Share(spans.PhaseLoad)),
				units.Percent(b.Share(spans.PhaseSeek)),
				units.Percent(b.Share(spans.PhaseTransfer))}
		})
	return &Report{ID: "phases", Caption: "Critical-path phase attribution", Table: t, Rows: rows}, nil
}
