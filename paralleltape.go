// Package paralleltape is a library for studying object placement in
// parallel tape storage systems. It reproduces, as a complete working
// system, the ICPP 2006 paper "Object Placement in Parallel Tape Storage
// Systems" (Zhang, He, Du, Lu — University of Minnesota DISC):
//
//   - a discrete-event simulator of multiple tape libraries (drives, robot
//     arms, linear-motion tape media, per-library FIFO robots);
//   - synthetic workload generation with power-law object sizes and
//     Zipf-distributed request popularity;
//   - hierarchical co-access clustering of objects;
//   - three placement schemes: the paper's parallel batch placement and
//     the two prior baselines it compares against (object probability
//     placement [Christodoulakis et al.] and cluster probability placement
//     [Li & Prabhakar]), plus a naive round-robin extension baseline;
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// # Quick start
//
//	hw := paralleltape.DefaultHardware()
//	w, _ := paralleltape.GenerateWorkload(paralleltape.DefaultWorkloadParams(), 42)
//	stats, _ := paralleltape.Simulate(hw, paralleltape.NewParallelBatch(4), w, 200, 7)
//	fmt.Println(paralleltape.FormatRate(stats.MeanBandwidth))
//
// See the examples/ directory for runnable scenarios and cmd/tapebench for
// the paper-figure harness.
package paralleltape

import (
	"fmt"

	"paralleltape/internal/analytic"
	"paralleltape/internal/catalog"
	"paralleltape/internal/cluster"
	"paralleltape/internal/dist"
	"paralleltape/internal/experiments"
	"paralleltape/internal/faults"
	"paralleltape/internal/metrics"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/tape"
	"paralleltape/internal/tapesys"
	"paralleltape/internal/trace"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

// Core domain types, re-exported from the internal packages.
type (
	// Hardware describes drive/library timing and geometry (Table 1).
	Hardware = tape.Hardware
	// Workload is an object population plus a predefined request set.
	Workload = model.Workload
	// Object is one whole-sequential-access data object.
	Object = model.Object
	// Request is one predefined retrieval request.
	Request = model.Request
	// ObjectID identifies an object within a workload.
	ObjectID = model.ObjectID
	// RequestID identifies a predefined request.
	RequestID = model.RequestID
	// WorkloadParams configures synthetic workload generation (§6).
	WorkloadParams = workload.Params
	// Scheme is a placement algorithm.
	Scheme = placement.Scheme
	// Placement is a finished placement: catalog plus mount policy.
	Placement = placement.Result
	// System is the multi-library discrete-event simulator.
	System = tapesys.System
	// RequestMetrics is the per-request measurement set.
	RequestMetrics = tapesys.RequestMetrics
	// SessionStats aggregates a simulated session (the paper's averages).
	SessionStats = metrics.SessionStats
	// Catalog is the object→cartridge indexing database.
	Catalog = catalog.Catalog
	// TapeKey identifies one cartridge (library, slot).
	TapeKey = tape.Key
	// ClusterConfig tunes the §5.1 co-access clustering.
	ClusterConfig = cluster.Config
	// ClusterResult is a finished clustering.
	ClusterResult = cluster.Result
	// ExperimentConfig scopes the paper-figure harness.
	ExperimentConfig = experiments.Config
	// ExperimentReport is one regenerated table/figure.
	ExperimentReport = experiments.Report
	// SimOptions tunes simulator scheduling (pending order, victim
	// policy) and resilience (fault profile, request timeout, retry
	// policy); the zero value is the paper's behavior with no faults.
	SimOptions = tapesys.Options
	// FaultProfile configures seed-deterministic fault injection —
	// stochastic drive/robot failures, scripted outages, media errors
	// (docs/RESILIENCE.md). Attach via SimOptions.Faults.
	FaultProfile = faults.Profile
	// DriveOutage scripts one deterministic drive outage window.
	DriveOutage = faults.DriveOutage
	// RobotOutage scripts one deterministic robot-arm outage window.
	RobotOutage = faults.RobotOutage
	// MediaFault scripts one permanent media error at an exact read.
	MediaFault = faults.MediaFault
	// Exponential is an exponential repair/failure-time distribution for
	// fault profiles.
	Exponential = dist.Exponential
	// AnalyticModel derives closed-form response estimates from a
	// placement without simulating.
	AnalyticModel = analytic.Model
	// AnalyticEstimate is one analytic response decomposition.
	AnalyticEstimate = analytic.Estimate
	// TraceEvent is one structured simulator event (docs/OBSERVABILITY.md).
	TraceEvent = trace.Event
	// TraceRecorder receives simulator events; attach with System.SetRecorder.
	TraceRecorder = trace.Recorder
	// TraceBuffer is an in-memory event recorder (System.EnableTrace).
	TraceBuffer = trace.Buffer
	// Timeline is the per-component aggregation of a recorded trace.
	Timeline = metrics.Timeline
)

// BuildTimeline reduces a recorded trace to per-component timelines
// (per-drive busy/idle, per-robot occupancy and queueing); see
// docs/OBSERVABILITY.md for the report format.
func BuildTimeline(events []TraceEvent) *Timeline { return metrics.BuildTimeline(events) }

// Placement scheme constructors.

// NewParallelBatch returns the paper's parallel batch placement (§5) with
// m switch drives per library (the paper's simulations settle on m=4).
func NewParallelBatch(m int) placement.ParallelBatch {
	return placement.ParallelBatch{M: m}
}

// NewObjectProbability returns the [11] object-probability baseline.
func NewObjectProbability() placement.ObjectProbability {
	return placement.ObjectProbability{}
}

// NewClusterProbability returns the [20] cluster-probability baseline.
func NewClusterProbability() placement.ClusterProbability {
	return placement.ClusterProbability{}
}

// NewRoundRobin returns the naive spreading extension baseline.
func NewRoundRobin() placement.RoundRobin {
	return placement.RoundRobin{}
}

// NewOnline returns the online (per-epoch local knowledge) variant of
// parallel batch placement — the paper's §7 future-work problem. epochs=1
// equals full knowledge.
func NewOnline(epochs, m int) placement.Online {
	return placement.Online{Epochs: epochs, M: m}
}

// DefaultHardware returns the paper's Table 1 configuration: three
// StorageTek L80-class libraries of eight IBM LTO-3 drives and eighty
// 400 GB cartridges each.
func DefaultHardware() Hardware { return tape.DefaultHardware() }

// DefaultWorkloadParams returns the paper's §6 workload settings: 30,000
// power-law-sized objects, 300 requests of 100–150 objects, Zipf α = 0.3.
func DefaultWorkloadParams() WorkloadParams { return workload.Defaults() }

// GenerateWorkload synthesizes a workload from params, deterministically
// in seed.
func GenerateWorkload(p WorkloadParams, seed uint64) (*Workload, error) {
	return workload.Generate(p, rng.New(seed))
}

// TargetMeanRequestBytes rescales all object sizes so the
// popularity-weighted mean request size equals target bytes (how the
// paper's request-size axis is produced). It returns the applied factor.
func TargetMeanRequestBytes(w *Workload, target float64) (float64, error) {
	return workload.TargetMeanRequestBytes(w, target)
}

// ReplaceAlpha re-skews request popularities to Zipf(alpha), keeping
// request membership fixed.
func ReplaceAlpha(w *Workload, alpha float64) (*Workload, error) {
	return workload.ReplaceAlpha(w, alpha)
}

// Place runs a placement scheme against hardware and validates the result.
func Place(hw Hardware, s Scheme, w *Workload) (*Placement, error) {
	pr, err := s.Place(w, hw)
	if err != nil {
		return nil, err
	}
	if err := pr.Validate(w, hw); err != nil {
		return nil, err
	}
	return pr, nil
}

// NewSystem builds a simulator in the placement's initial state.
func NewSystem(hw Hardware, pl *Placement) (*System, error) {
	return tapesys.New(hw, pl)
}

// NewSystemWithOptions builds a simulator with explicit scheduling options.
func NewSystemWithOptions(hw Hardware, pl *Placement, opts SimOptions) (*System, error) {
	return tapesys.NewWithOptions(hw, pl, opts)
}

// StripeWorkload splits every object into shards of at most unit bytes and
// expands requests accordingly (RAIT-style striping substrate; place the
// result with NewRoundRobin to emulate striped tape arrays). It returns
// the striped workload and each shard's parent object.
func StripeWorkload(w *Workload, unit int64) (*Workload, []ObjectID, error) {
	return workload.Stripe(w, unit)
}

// Simulate is the end-to-end convenience: place w with s, then submit
// n requests sampled from the workload's popularity distribution
// (deterministically in seed), and return the aggregated session
// statistics.
func Simulate(hw Hardware, s Scheme, w *Workload, n int, seed uint64) (SessionStats, error) {
	if n <= 0 {
		return SessionStats{}, fmt.Errorf("paralleltape: request count must be positive, got %d", n)
	}
	pl, err := Place(hw, s, w)
	if err != nil {
		return SessionStats{}, err
	}
	sys, err := NewSystem(hw, pl)
	if err != nil {
		return SessionStats{}, err
	}
	stream, err := workload.NewRequestStream(w, rng.New(seed))
	if err != nil {
		return SessionStats{}, err
	}
	ms := make([]tapesys.RequestMetrics, 0, n)
	for i := 0; i < n; i++ {
		m, err := sys.Submit(stream.Next())
		if err != nil {
			return SessionStats{}, err
		}
		ms = append(ms, m)
	}
	return metrics.AggregateSession(ms), nil
}

// AggregateSession reduces per-request metrics to session statistics —
// the paper's averages plus the degraded-mode availability accounting
// (docs/RESILIENCE.md). Simulate calls it internally; use it directly
// when driving a System request by request.
func AggregateSession(ms []RequestMetrics) SessionStats {
	return metrics.AggregateSession(ms)
}

// ClusterObjects runs the §5.1 hierarchical co-access clustering.
func ClusterObjects(w *Workload, cfg ClusterConfig) (*ClusterResult, error) {
	return cluster.Run(w, cfg)
}

// DefaultClusterConfig returns the reproduction's clustering defaults
// (average linkage, workload-relative threshold).
func DefaultClusterConfig() ClusterConfig { return cluster.DefaultConfig() }

// Experiment configuration and dispatch.

// DefaultExperimentConfig returns the full paper-scale experiment setup.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// QuickExperimentConfig returns a reduced-scale setup for fast runs.
func QuickExperimentConfig() ExperimentConfig { return experiments.Quick() }

// RunExperiment regenerates one paper exhibit by id: "table1", "fig5",
// "fig6", "fig7", "fig8", "fig9", "tech", "robustness", or "ablation" —
// or an extension exhibit: "striping", "online", "scheduler",
// "sensitivity", "chaos", or "phases".
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentReport, error) {
	return experiments.ByID(id, cfg)
}

// RunAllExperiments regenerates every exhibit in paper order.
func RunAllExperiments(cfg ExperimentConfig) ([]*ExperimentReport, error) {
	return experiments.All(cfg)
}

// NewAnalyticModel builds a closed-form estimator over a placement; see
// internal/analytic for the assumptions.
func NewAnalyticModel(hw Hardware, pl *Placement) (*AnalyticModel, error) {
	return analytic.NewModel(hw, pl)
}

// IdealBandwidth returns the hardware ceiling (every drive streaming).
func IdealBandwidth(hw Hardware) float64 { return analytic.IdealBandwidth(hw) }

// Formatting helpers.

// FormatBytes renders a byte count with SI units ("400.00 GB").
func FormatBytes(n int64) string { return units.FormatBytesSI(n) }

// FormatRate renders a bandwidth ("80.00 MB/s").
func FormatRate(bytesPerSecond float64) string { return units.FormatRate(bytesPerSecond) }

// FormatSeconds renders a simulated duration ("12m02.0s").
func FormatSeconds(s float64) string { return units.FormatSeconds(s) }
