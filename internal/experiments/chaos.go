package experiments

// chaos.go is the degraded-mode sweep (docs/RESILIENCE.md, EXPERIMENTS.md
// "Degraded-mode sweep"): the paper's three placement schemes compared
// under increasing stochastic failure rates. The paper itself only
// simulates healthy hardware; this exhibit asks how much of each scheme's
// bandwidth advantage survives when drives fail mid-request, robots go
// down, and reads hit bad media.

import (
	"fmt"

	"paralleltape/internal/dist"
	"paralleltape/internal/faults"
	"paralleltape/internal/tapesys"
)

// chaosPoint is one failure-rate setting of the chaos sweep.
type chaosPoint struct {
	name string
	// mtbf is the per-drive mean time between failures in simulated
	// seconds; 0 disables fault injection entirely (the healthy baseline).
	mtbf float64
}

// chaosProfile builds the fault profile for one sweep point. Robots are an
// order of magnitude more reliable than drives (one arm serves a whole
// library), repairs are exponential, and a small permanent media-error
// rate rides along so every failure class is exercised.
func chaosProfile(seed uint64, mtbf float64) *faults.Profile {
	return &faults.Profile{
		Seed:              seed,
		DriveMTBF:         mtbf,
		DriveRepair:       dist.Exponential{Mean: 600},
		RobotMTBF:         10 * mtbf,
		RobotRepair:       dist.Exponential{Mean: 300},
		MediaErrorPerRead: 0.002,
	}
}

// Chaos runs the degraded-mode sweep: for each drive-MTBF point the three
// schemes replay the same workload with the same fault seed, and the table
// reports delivered availability and goodput next to the nominal bandwidth
// so the cost of failures is directly readable. All placements are
// memoized across points (the fault profile does not change where objects
// live), and the whole sweep is byte-deterministic per Config at every
// worker count.
func Chaos(cfg Config) (*Report, error) {
	w, err := cfg.baseWorkload(cfg.target(fig6ReqBytes))
	if err != nil {
		return nil, err
	}
	points := []chaosPoint{
		{"healthy", 0},
		{"mtbf 40000s", 40000},
		{"mtbf 10000s", 10000},
		{"mtbf 2500s", 2500},
	}
	var runs []Run
	for _, pt := range points {
		opts := tapesys.Options{RetryBackoff: 30}
		if pt.mtbf > 0 {
			opts.Faults = chaosProfile(cfg.Seed^0xC4A05, pt.mtbf)
		}
		for _, sch := range cfg.threeSchemes() {
			runs = append(runs, Run{
				Label:  pt.name,
				Scheme: sch,
				W:      w,
				HW:     cfg.HW,
				Opts:   opts,
				X:      pt.mtbf,
			})
		}
	}
	rows := cfg.RunAll(runs)
	t := table("Degraded-mode sweep: scheme comparison under increasing failure rates",
		[]string{"failure rate", "scheme", "bandwidth MB/s", "goodput MB/s", "avail %",
			"retries/req", "failed groups"}, 2, rows,
		func(r Row) []string {
			return []string{r.Label, r.Scheme,
				mbps(r.Stats.MeanBandwidth), mbps(r.Stats.MeanGoodput),
				fmt.Sprintf("%.2f", 100*r.Stats.Availability),
				fmt.Sprintf("%.2f", r.Stats.MeanRetries),
				fmt.Sprintf("%d", r.Stats.FailedGroups)}
		})
	return &Report{ID: "chaos", Caption: "Degraded-mode scheme comparison", Table: t, Rows: rows}, nil
}
