package experiments

import (
	"fmt"

	"paralleltape/internal/cluster"
	"paralleltape/internal/placement"
	"paralleltape/internal/tapesys"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

// Striping regenerates the §2 argument the paper makes against tape
// striping [10,13,14,15,9,19]: objects are split into stripe shards dealt
// round-robin across cartridges, giving every transfer full parallelism
// but forcing every request to synchronize across many tapes. The
// experiment compares parallel batch placement on the original workload
// against striped placements at several stripe units.
func Striping(cfg Config) (*Report, error) {
	base, err := cfg.baseWorkload(cfg.target(fig6ReqBytes))
	if err != nil {
		return nil, err
	}
	var runs []Run
	runs = append(runs, Run{
		Label:  "no striping",
		Scheme: placement.ParallelBatch{M: cfg.M, K: cfg.K},
		W:      base,
		HW:     cfg.HW,
	})
	// Stripe units relative to cartridge capacity (the regime, not the
	// absolute number, is what matters across scales).
	for _, frac := range []int64{64, 256, 1024} {
		unit := cfg.HW.Capacity / frac
		if unit < 1 {
			unit = 1
		}
		striped, _, err := workload.Stripe(base, unit)
		if err != nil {
			return nil, err
		}
		runs = append(runs, Run{
			Label:  fmt.Sprintf("stripe unit %s", units.FormatBytesSI(unit)),
			Scheme: placement.RoundRobin{K: cfg.K},
			W:      striped,
			HW:     cfg.HW,
			X:      float64(unit),
		})
	}
	rows := cfg.RunAll(runs)
	t := table("Striping comparison (§2): parallel batch vs. RAIT-style striped placement",
		[]string{"placement", "bandwidth MB/s", "avg response s", "switch s", "tapes/req"}, 1, rows,
		func(r Row) []string {
			return []string{r.Label, mbps(r.Stats.MeanBandwidth), secs(r.Stats.MeanResponse),
				secs(r.Stats.MeanSwitch), fmt.Sprintf("%.1f", r.Stats.MeanTapes)}
		})
	return &Report{ID: "striping", Caption: "Striped vs. parallel batch placement", Table: t, Rows: rows}, nil
}

// Online regenerates the paper's §7 future-work question: how much does
// placing objects with only per-epoch (local) knowledge cost relative to
// the full-knowledge parallel batch placement?
func Online(cfg Config) (*Report, error) {
	base, err := cfg.baseWorkload(cfg.target(fig6ReqBytes))
	if err != nil {
		return nil, err
	}
	var runs []Run
	runs = append(runs, Run{
		Label:  "full knowledge (offline)",
		Scheme: placement.ParallelBatch{M: cfg.M, K: cfg.K},
		W:      base,
		HW:     cfg.HW,
		X:      0,
	})
	for _, epochs := range []int{1, 2, 4, 8} {
		runs = append(runs, Run{
			Label:  fmt.Sprintf("online, %d epochs", epochs),
			Scheme: placement.Online{Epochs: epochs, M: cfg.M, K: cfg.K},
			W:      base,
			HW:     cfg.HW,
			X:      float64(epochs),
		})
	}
	rows := cfg.RunAll(runs)
	t := table("Online placement (§7 future work): per-epoch local knowledge vs. full knowledge",
		[]string{"placement", "bandwidth MB/s", "avg response s", "switch s", "switches/req"}, 1, rows,
		func(r Row) []string {
			return []string{r.Label, mbps(r.Stats.MeanBandwidth), secs(r.Stats.MeanResponse),
				secs(r.Stats.MeanSwitch), fmt.Sprintf("%.1f", r.Stats.MeanSwitches)}
		})
	return &Report{ID: "online", Caption: "Online vs. offline parallel batch placement", Table: t, Rows: rows}, nil
}

// Scheduler sweeps the simulator's scheduling policies (pending-queue
// order × victim selection) on a fixed parallel-batch placement,
// validating the paper's implicit choices (largest-first service,
// least-popular replacement [11]).
func Scheduler(cfg Config) (*Report, error) {
	base, err := cfg.baseWorkload(cfg.target(fig6ReqBytes))
	if err != nil {
		return nil, err
	}
	scheme := placement.ParallelBatch{M: cfg.M, K: cfg.K}
	var runs []Run
	for _, po := range []tapesys.PendingOrder{tapesys.LargestFirst, tapesys.SmallestFirst, tapesys.SlotOrder} {
		for _, vp := range []tapesys.VictimPolicy{tapesys.LeastPopular, tapesys.MostPopular, tapesys.DriveOrder} {
			runs = append(runs, Run{
				Label:  po.String() + " / " + vp.String(),
				Scheme: scheme,
				W:      base,
				HW:     cfg.HW,
				Opts:   tapesys.Options{Pending: po, Victim: vp},
			})
		}
	}
	rows := cfg.RunAll(runs)
	t := table("Scheduler policy sweep (parallel batch placement)",
		[]string{"pending / victim", "bandwidth MB/s", "avg response s", "switch s", "robot wait s"}, 1, rows,
		func(r Row) []string {
			return []string{r.Label, mbps(r.Stats.MeanBandwidth), secs(r.Stats.MeanResponse),
				secs(r.Stats.MeanSwitch), secs(r.Stats.MeanRobotWait)}
		})
	return &Report{ID: "scheduler", Caption: "Scheduling policy sweep", Table: t, Rows: rows}, nil
}

// Sensitivity sweeps the §5.1 clustering knobs (linkage criterion and the
// "preset probability value" threshold) and reports their effect on the
// parallel batch placement. The paper fixes neither; this experiment shows
// how much they matter.
func Sensitivity(cfg Config) (*Report, error) {
	base, err := cfg.baseWorkload(cfg.target(fig6ReqBytes))
	if err != nil {
		return nil, err
	}
	// The automatic threshold is 0.9x the smallest positive request
	// probability; sweep absolute thresholds around it.
	minProb := 1.0
	for i := range base.Requests {
		if p := base.Requests[i].Prob; p > 0 && p < minProb {
			minProb = p
		}
	}
	type point struct {
		name string
		ccfg cluster.Config
	}
	points := []point{
		{"average / auto", cluster.Config{Linkage: cluster.Average}},
		{"single / auto", cluster.Config{Linkage: cluster.Single}},
		{"complete / auto", cluster.Config{Linkage: cluster.Complete}},
		{"average / 0.1x", cluster.Config{Linkage: cluster.Average, Threshold: 0.09 * minProb}},
		{"average / 2x", cluster.Config{Linkage: cluster.Average, Threshold: 1.8 * minProb}},
		{"average / 10x", cluster.Config{Linkage: cluster.Average, Threshold: 9 * minProb}},
	}
	var runs []Run
	for _, pt := range points {
		runs = append(runs, Run{
			Label:  pt.name,
			Scheme: placement.ParallelBatch{M: cfg.M, K: cfg.K, Clustering: pt.ccfg},
			W:      base,
			HW:     cfg.HW,
		})
	}
	rows := cfg.RunAll(runs)
	t := table("Clustering sensitivity (linkage / threshold vs. the auto setting)",
		[]string{"linkage / threshold", "bandwidth MB/s", "avg response s", "switch s", "tapes/req"}, 1, rows,
		func(r Row) []string {
			return []string{r.Label, mbps(r.Stats.MeanBandwidth), secs(r.Stats.MeanResponse),
				secs(r.Stats.MeanSwitch), fmt.Sprintf("%.1f", r.Stats.MeanTapes)}
		})
	return &Report{ID: "sensitivity", Caption: "Clustering parameter sensitivity", Table: t, Rows: rows}, nil
}
