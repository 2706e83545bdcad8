package experiments

import (
	"fmt"
	"strings"

	"paralleltape/internal/cluster"
	"paralleltape/internal/metrics"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

// Paper-quoted average request sizes (figure captions).
const (
	fig6ReqBytes = 213 * float64(units.GB)
	fig8ReqBytes = 240 * float64(units.GB)
	fig9ReqBytes = 160 * float64(units.GB)
)

// Table1 renders the hardware configuration table (the paper's Table 1).
func Table1(cfg Config) (*Report, error) {
	t := metrics.NewTable("Table 1. Tape drive/library specifications", "parameter", "value")
	hw := cfg.HW
	t.AddRow("Average cell to drive time", fmt.Sprintf("%.1fs", hw.CellToDrive))
	t.AddRow("Tape load and thread to ready", fmt.Sprintf("%.0fs", hw.LoadThread))
	t.AddRow("Data transfer rate, native", units.FormatRate(hw.TransferRate))
	t.AddRow("Maximum/average rewind time", fmt.Sprintf("%.0f/%.0fs", hw.MaxRewind, hw.MaxRewind/2))
	t.AddRow("Unload time", fmt.Sprintf("%.0fs", hw.Unload))
	t.AddRow("Average file access time (first file)", fmt.Sprintf("%.0fs", hw.AvgFileSeek))
	t.AddRow("Number of tapes per library", fmt.Sprintf("%d", hw.TapesPerLib))
	t.AddRow("Tape capacity", units.FormatBytesSI(hw.Capacity))
	t.AddRow("Tape drives per library", fmt.Sprintf("%d", hw.DrivesPerLib))
	t.AddRow("Number of tape libraries", fmt.Sprintf("%d", hw.Libraries))
	return &Report{ID: "table1", Caption: "Tape drive/library specifications", Table: t}, nil
}

// Fig5 reproduces Figure 5: effective bandwidth of parallel batch placement
// versus the number of switch drives m, for several Zipf α values. The
// paper's findings: a jump from m=1 to m=2, a maximum for m in [2,4], and
// decline beyond as always-mounted capacity shrinks.
func Fig5(cfg Config) (*Report, error) {
	base, err := cfg.baseWorkload(cfg.target(fig6ReqBytes))
	if err != nil {
		return nil, err
	}
	alphas := []float64{0.1, 0.3, 0.7}
	maxM := cfg.HW.DrivesPerLib - 1
	var runs []Run
	for _, alpha := range alphas {
		w, err := workload.ReplaceAlpha(base, alpha)
		if err != nil {
			return nil, err
		}
		for m := 1; m <= maxM; m++ {
			runs = append(runs, Run{
				Label:  fmt.Sprintf("alpha=%.1f", alpha),
				Scheme: placement.ParallelBatch{M: m, K: cfg.K},
				W:      w,
				HW:     cfg.HW,
				X:      float64(m),
			})
		}
	}
	rows := cfg.RunAll(runs)
	t := table("Figure 5. Bandwidth vs. number of drives used for tape switch (parallel batch placement)",
		[]string{"m", "alpha", "bandwidth MB/s", "avg response s", "avg switch s", "switches/req"}, 2, rows,
		func(r Row) []string {
			return []string{fmt.Sprintf("%.0f", r.X), r.Label, mbps(r.Stats.MeanBandwidth),
				secs(r.Stats.MeanResponse), secs(r.Stats.MeanSwitch),
				fmt.Sprintf("%.1f", r.Stats.MeanSwitches)}
		})
	return &Report{
		ID:      "fig5",
		Caption: "Bandwidth vs. number of switch drives m",
		Table:   t,
		Rows:    rows,
	}, nil
}

// Fig6 reproduces Figure 6: bandwidth versus the request popularity skew α
// for the three schemes at ≈213 GB average request size. Findings: skew
// helps parallel batch and object probability; cluster probability is
// nearly flat; parallel batch always wins.
func Fig6(cfg Config) (*Report, error) {
	base, err := cfg.baseWorkload(cfg.target(fig6ReqBytes))
	if err != nil {
		return nil, err
	}
	alphas := []float64{0, 0.1, 0.3, 0.5, 0.7, 1.0}
	var runs []Run
	for _, alpha := range alphas {
		w, err := workload.ReplaceAlpha(base, alpha)
		if err != nil {
			return nil, err
		}
		for _, sch := range cfg.threeSchemes() {
			runs = append(runs, Run{
				Label:  fmt.Sprintf("alpha=%.1f", alpha),
				Scheme: sch,
				W:      w,
				HW:     cfg.HW,
				X:      alpha,
			})
		}
	}
	rows := cfg.RunAll(runs)
	t := table("Figure 6. Bandwidth vs. alpha (avg request ≈ 213 GB)",
		[]string{"alpha", "scheme", "bandwidth MB/s", "avg response s", "avg switch s"}, 2, rows,
		func(r Row) []string {
			return []string{fmt.Sprintf("%.1f", r.X), r.Scheme, mbps(r.Stats.MeanBandwidth),
				secs(r.Stats.MeanResponse), secs(r.Stats.MeanSwitch)}
		})
	return &Report{ID: "fig6", Caption: "Bandwidth vs. alpha", Table: t, Rows: rows}, nil
}

// Fig7 reproduces Figure 7: bandwidth versus average request size (object
// sizes are scaled, as in the paper), plus the paper's extreme case where
// every object fits on the n×d keep-mounted tapes so no switches occur and
// the transfer-time share separates the schemes (cluster probability ≈62%
// vs parallel batch ≈19% in the paper).
func Fig7(cfg Config) (*Report, error) {
	targets := []float64{
		80 * float64(units.GB), 120 * float64(units.GB), 160 * float64(units.GB),
		213 * float64(units.GB), 240 * float64(units.GB), 320 * float64(units.GB),
	}
	var runs []Run
	for _, target := range targets {
		target = cfg.target(target)
		w, err := cfg.baseWorkload(target)
		if err != nil {
			return nil, err
		}
		for _, sch := range cfg.threeSchemes() {
			runs = append(runs, Run{
				Label:  "size=" + gb(target) + "GB",
				Scheme: sch,
				W:      w,
				HW:     cfg.HW,
				X:      target,
			})
		}
	}
	// Extreme case: shrink objects until the whole population fits on the
	// n×d drives' tapes.
	extreme, err := cfg.baseWorkload(0)
	if err != nil {
		return nil, err
	}
	mountedCap := float64(cfg.HW.TotalDrives()) * float64(cfg.HW.Capacity) * cfg.K * 0.95
	factor := mountedCap / float64(extreme.TotalObjectBytes())
	if factor < 1 {
		if err := extreme.ScaleObjectSizes(factor); err != nil {
			return nil, err
		}
	}
	for _, sch := range cfg.threeSchemes() {
		runs = append(runs, Run{
			Label:  "extreme(all-mounted)",
			Scheme: sch,
			W:      extreme,
			HW:     cfg.HW,
			X:      extreme.MeanRequestBytes(),
		})
	}
	rows := cfg.RunAll(runs)
	t := table("Figure 7. Bandwidth vs. average request size",
		[]string{"request", "scheme", "bandwidth MB/s", "avg response s", "switch s", "transfer share"}, 2, rows,
		func(r Row) []string {
			share := 0.0
			if r.Stats.MeanResponse > 0 {
				share = r.Stats.MeanTransfer / r.Stats.MeanResponse
			}
			return []string{r.Label, r.Scheme, mbps(r.Stats.MeanBandwidth),
				secs(r.Stats.MeanResponse), secs(r.Stats.MeanSwitch), units.Percent(share)}
		})
	return &Report{ID: "fig7", Caption: "Bandwidth vs. average request size", Table: t, Rows: rows}, nil
}

// Fig8 reproduces Figure 8: bandwidth versus the number of tape libraries
// at ≈240 GB average request size. The workload is shrunk so it fits even
// a single library (the paper varies the object population across
// experiments; see EXPERIMENTS.md). Findings: parallel batch and object
// probability scale with libraries; cluster probability does not (beyond
// the 1→3 robot-contention relief).
func Fig8(cfg Config) (*Report, error) {
	libCounts := []int{1, 2, 3, 4, 5}
	// Build a workload that fits one library at utilization cfg.K with
	// ~15% headroom.
	p, err := cfg.baseParams()
	if err != nil {
		return nil, err
	}
	oneLib := cfg.HW
	oneLib.Libraries = 1
	budget := 0.85 * cfg.K * float64(oneLib.TotalCapacity())
	var w *model.Workload
	for attempt := 0; attempt < 8; attempt++ {
		w, err = workload.Generate(p, rng.New(cfg.Seed+uint64(attempt)))
		if err != nil {
			return nil, err
		}
		if _, err := workload.TargetMeanRequestBytes(w, cfg.target(fig8ReqBytes)); err != nil {
			return nil, err
		}
		total := float64(w.TotalObjectBytes())
		if total <= budget {
			break
		}
		// Shrink objects AND predefined requests proportionally so the
		// co-access density (how many requests share an object) matches
		// the other figures' workloads.
		shrink := budget / total * 0.98
		p.NumObjects = int(float64(p.NumObjects) * shrink)
		if p.NumObjects < p.MaxReqLen*2 {
			p.NumObjects = p.MaxReqLen * 2
		}
		p.NumRequests = max(10, int(float64(p.NumRequests)*shrink))
		w = nil
	}
	if w == nil {
		return nil, fmt.Errorf("experiments: could not shrink fig8 workload into one library")
	}
	var runs []Run
	for _, n := range libCounts {
		hw := cfg.HW
		hw.Libraries = n
		for _, sch := range cfg.threeSchemes() {
			runs = append(runs, Run{
				Label:  fmt.Sprintf("libraries=%d", n),
				Scheme: sch,
				W:      w,
				HW:     hw,
				X:      float64(n),
			})
		}
	}
	rows := cfg.RunAll(runs)
	t := table("Figure 8. Bandwidth vs. number of tape libraries (avg request ≈ 240 GB)",
		[]string{"libraries", "scheme", "bandwidth MB/s", "avg response s", "drives used/req"}, 2, rows,
		func(r Row) []string {
			return []string{fmt.Sprintf("%.0f", r.X), r.Scheme, mbps(r.Stats.MeanBandwidth),
				secs(r.Stats.MeanResponse), fmt.Sprintf("%.1f", r.Stats.MeanDrivesUsed)}
		})
	return &Report{ID: "fig8", Caption: "Bandwidth vs. number of tape libraries", Table: t, Rows: rows}, nil
}

// Fig9 reproduces Figure 9: the response-time decomposition (average tape
// switch / data seek / data transfer time) for the three schemes at
// ≈160 GB average request size. Findings: object probability is
// switch-dominated, seek time is negligible everywhere, object probability
// has the best transfer time.
func Fig9(cfg Config) (*Report, error) {
	w, err := cfg.baseWorkload(cfg.target(fig9ReqBytes))
	if err != nil {
		return nil, err
	}
	var runs []Run
	for _, sch := range cfg.threeSchemes() {
		runs = append(runs, Run{Label: "components", Scheme: sch, W: w, HW: cfg.HW})
	}
	rows := cfg.RunAll(runs)
	t := table("Figure 9. Response time component comparison (avg request ≈ 160 GB)",
		[]string{"scheme", "switch s", "seek s", "transfer s", "response s", "switch share", "transfer share"}, 1, rows,
		func(r Row) []string {
			resp := r.Stats.MeanResponse
			switchShare, xferShare := 0.0, 0.0
			if resp > 0 {
				switchShare = r.Stats.MeanSwitch / resp
				xferShare = r.Stats.MeanTransfer / resp
			}
			return []string{r.Scheme, secs(r.Stats.MeanSwitch), secs(r.Stats.MeanSeek),
				secs(r.Stats.MeanTransfer), secs(resp),
				units.Percent(switchShare), units.Percent(xferShare)}
		})
	return &Report{ID: "fig9", Caption: "Response time component comparison", Table: t, Rows: rows}, nil
}

// Tech reproduces the closing §6 remark: when tape technology improves
// (higher transfer rate, larger cartridges), parallel batch placement
// gains more than the baselines.
func Tech(cfg Config) (*Report, error) {
	base, err := cfg.baseWorkload(cfg.target(fig6ReqBytes))
	if err != nil {
		return nil, err
	}
	points := []struct {
		rate float64
		cap  float64
	}{{1, 1}, {2, 1}, {4, 1}, {1, 2}, {2, 2}}
	var runs []Run
	for _, pt := range points {
		hw := cfg.HW
		hw.TransferRate *= pt.rate
		hw.Capacity = int64(float64(hw.Capacity) * pt.cap)
		for _, sch := range cfg.threeSchemes() {
			runs = append(runs, Run{
				Label:  fmt.Sprintf("rate x%.0f, capacity x%.0f", pt.rate, pt.cap),
				Scheme: sch,
				W:      base,
				HW:     hw,
				X:      pt.rate,
			})
		}
	}
	rows := cfg.RunAll(runs)
	t := table("Technology scaling (§6 closing remark): improved drives/cartridges",
		[]string{"technology", "scheme", "bandwidth MB/s", "avg response s"}, 2, rows,
		func(r Row) []string {
			return []string{r.Label, r.Scheme, mbps(r.Stats.MeanBandwidth), secs(r.Stats.MeanResponse)}
		})
	return &Report{ID: "tech", Caption: "Technology scaling", Table: t, Rows: rows}, nil
}

// Robustness reproduces the §6 robustness remark: varying the object
// population, the predefined request count, and the simulated request
// count does not change the relative order of the schemes.
func Robustness(cfg Config) (*Report, error) {
	type variant struct {
		name     string
		objects  float64 // population multiplier
		requests float64 // predefined request multiplier
		sim      float64 // simulated request multiplier
	}
	// The first group of variants preserves the workload's co-access
	// density (requests per object); the paper's invariance claim holds
	// there. "requests x2" deliberately densifies co-access — see
	// EXPERIMENTS.md for why that regime behaves differently.
	variants := []variant{
		{"baseline", 1, 1, 1},
		{"population x0.5", 0.5, 0.5, 1},
		{"requests x0.5", 1, 0.5, 1},
		{"requests x2 (denser)", 1, 2, 1},
		{"simulated x0.5", 1, 1, 0.5},
		{"simulated x2", 1, 1, 2},
	}
	var runs []Run
	for vi, v := range variants {
		p, err := cfg.baseParams()
		if err != nil {
			return nil, err
		}
		p.NumObjects = max(p.MaxReqLen*2, int(float64(p.NumObjects)*v.objects))
		p.NumRequests = max(10, int(float64(p.NumRequests)*v.requests))
		w, err := workload.Generate(p, rng.New(cfg.Seed+uint64(vi)*101))
		if err != nil {
			return nil, err
		}
		if _, err := workload.TargetMeanRequestBytes(w, cfg.target(fig6ReqBytes)); err != nil {
			return nil, err
		}
		nSim := max(10, int(float64(cfg.Requests)*v.sim))
		for _, sch := range cfg.threeSchemes() {
			runs = append(runs, Run{Label: v.name, Scheme: sch, W: w, HW: cfg.HW, Requests: nSim})
		}
	}
	rows := cfg.RunAll(runs)
	t := table("Robustness (§6): relative scheme order under workload variations",
		[]string{"variant", "scheme", "bandwidth MB/s", "avg response s"}, 2, rows,
		func(r Row) []string {
			return []string{r.Label, r.Scheme, mbps(r.Stats.MeanBandwidth), secs(r.Stats.MeanResponse)}
		})
	return &Report{ID: "robustness", Caption: "Robustness to workload variation", Table: t, Rows: rows}, nil
}

// Ablation quantifies each parallel-batch design choice (§5) by switching
// one off at a time, plus the naive round-robin spread as a floor.
func Ablation(cfg Config) (*Report, error) {
	w, err := cfg.baseWorkload(cfg.target(fig6ReqBytes))
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		sch  placement.Scheme
	}{
		{"full parallel-batch", placement.ParallelBatch{M: cfg.M, K: cfg.K}},
		{"no clustering (density only)", placement.ParallelBatch{M: cfg.M, K: cfg.K, NoRefine: true}},
		{"no organ-pipe alignment", placement.ParallelBatch{M: cfg.M, K: cfg.K, NoOrganPipe: true}},
		{"first-fit balancing", placement.ParallelBatch{M: cfg.M, K: cfg.K, FirstFitBalance: true}},
		{"no cluster splitting", placement.ParallelBatch{M: cfg.M, K: cfg.K, SplitThreshold: 1 << 62}},
		{"wide hot batch (1+2)", placement.ParallelBatch{M: cfg.M, K: cfg.K, WideHotBatch: true}},
		{"round-robin spread", placement.RoundRobin{K: cfg.K}},
	}
	var runs []Run
	for _, v := range variants {
		runs = append(runs, Run{Label: v.name, Scheme: v.sch, W: w, HW: cfg.HW})
	}
	rows := cfg.RunAll(runs)
	t := table("Ablation: parallel batch placement design choices",
		[]string{"variant", "bandwidth MB/s", "avg response s", "switch s", "seek s", "transfer s"}, 1, rows,
		func(r Row) []string {
			return []string{r.Label, mbps(r.Stats.MeanBandwidth), secs(r.Stats.MeanResponse),
				secs(r.Stats.MeanSwitch), secs(r.Stats.MeanSeek), secs(r.Stats.MeanTransfer)}
		})
	return &Report{ID: "ablation", Caption: "Parallel batch design ablation", Table: t, Rows: rows}, nil
}

// exhibits is the one list of exhibits, in paper order: All runs them in
// this order, ByID looks them up, and IDs names them.
var exhibits = []struct {
	id    string
	build func(Config) (*Report, error)
}{
	{"table1", Table1}, {"fig5", Fig5}, {"fig6", Fig6}, {"fig7", Fig7},
	{"fig8", Fig8}, {"fig9", Fig9}, {"tech", Tech},
	{"robustness", Robustness}, {"ablation", Ablation},
	{"striping", Striping}, {"online", Online}, {"scheduler", Scheduler},
	{"sensitivity", Sensitivity}, {"chaos", Chaos}, {"phases", Phases},
}

// IDs returns the identifier of every exhibit, in the order All runs them.
func IDs() []string {
	ids := make([]string, len(exhibits))
	for i, e := range exhibits {
		ids[i] = e.id
	}
	return ids
}

// All runs every experiment in paper order. The exhibits share one
// clustering memo, so each distinct (workload content, config) input is
// clustered once per call; the clustering buffers are released on return.
func All(cfg Config) ([]*Report, error) {
	cfg.memo = clusterMemo{}
	defer cluster.ReleaseScratch()
	var out []*Report
	for _, e := range exhibits {
		rep, err := e.build(cfg)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", e.id, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// ByID dispatches one experiment by identifier (see IDs).
func ByID(id string, cfg Config) (*Report, error) {
	for _, e := range exhibits {
		if e.id == id {
			return e.build(cfg)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %s)", id, strings.Join(IDs(), ", "))
}
