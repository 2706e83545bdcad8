// Package analytic derives closed-form estimates of request response time
// from a placement, without running the discrete-event simulator. The
// estimates assume the stationary mount state equals the placement's
// initial mounts (requests are independent, so mounted switch tapes drift
// with history — the simulator captures that; the analytic model brackets
// it). They serve three purposes:
//
//   - sanity-check the simulator (estimates and measurements must agree on
//     ordering and rough magnitude — tested in this package);
//   - give library users instant capacity answers without simulating;
//   - expose the structural quantities (tapes touched, offline groups,
//     switch serialization) that explain the paper's figures.
package analytic

import (
	"fmt"
	"math"

	"paralleltape/internal/catalog"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/tape"
)

// Estimate is the analytic decomposition of one request's expected
// response time (seconds).
type Estimate struct {
	Response float64
	Switch   float64
	Seek     float64
	Transfer float64

	TapesTouched  int
	OfflineTapes  int
	Bytes         int64
	BottleneckLib int // library whose pipeline dominates the estimate
}

// Bandwidth returns the estimated effective bandwidth in bytes/second.
func (e Estimate) Bandwidth() float64 {
	if e.Response <= 0 {
		return 0
	}
	return float64(e.Bytes) / e.Response
}

// Model holds the immutable inputs of the estimator.
type Model struct {
	hw      tape.Hardware
	cat     *catalog.Catalog
	mounted map[tape.Key]bool
	// switchable drives per library under the placement's pinning.
	switchable []int
}

// NewModel builds an estimator from hardware and a placement.
func NewModel(hw tape.Hardware, pl *placement.Result) (*Model, error) {
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	if pl == nil || pl.Catalog == nil {
		return nil, fmt.Errorf("analytic: nil placement")
	}
	if len(pl.InitialMounts) != hw.Libraries {
		return nil, fmt.Errorf("analytic: placement has %d libraries, hardware %d",
			len(pl.InitialMounts), hw.Libraries)
	}
	m := &Model{
		hw:         hw,
		cat:        pl.Catalog,
		mounted:    make(map[tape.Key]bool),
		switchable: make([]int, hw.Libraries),
	}
	for lib := range pl.InitialMounts {
		for d, ti := range pl.InitialMounts[lib] {
			if ti >= 0 {
				m.mounted[tape.Key{Library: lib, Index: ti}] = true
			}
			if !pl.Pinned[lib][d] {
				m.switchable[lib]++
			}
		}
	}
	return m, nil
}

// EstimateRequest computes the expected response decomposition for one
// request under the stationary-mounts assumption:
//
//   - every tape group transfers at the native rate after an average
//     half-span seek within its extent range;
//   - offline groups in a library serialize through its switchable drives
//     in rounds, each round costing one average switch (rewind/2 + unload
//   - robot stow/fetch + load);
//   - the response is the max over libraries of (switch rounds + the
//     largest single-tape seek+transfer chain in that library), and at
//     least the largest mounted-tape service anywhere.
func (m *Model) EstimateRequest(r *model.Request) (Estimate, error) {
	// A Grouper per call keeps the Model immutable.
	return m.estimate(catalog.NewGrouper(m.cat), r)
}

// estimate is EstimateRequest on the caller's Grouper.
func (m *Model) estimate(gr *catalog.Grouper, r *model.Request) (Estimate, error) {
	groups, err := gr.Group(r)
	if err != nil {
		return Estimate{}, err
	}
	est := Estimate{TapesTouched: len(groups)}

	// Per-library aggregation.
	type libAgg struct {
		offline      int
		offlineWork  float64 // summed seek+transfer of offline groups
		maxChain     float64 // largest single-group seek+transfer
		mountedChain float64 // largest mounted-group seek+transfer
	}
	aggs := make([]libAgg, m.hw.Libraries)
	avgSwitch := m.hw.AverageSwitchTime()

	for _, g := range groups {
		est.Bytes += g.Bytes
		xfer := m.hw.TransferTime(g.Bytes)
		seek := m.groupSeek(g)
		a := &aggs[g.Tape.Library]
		chain := seek + xfer
		if m.mounted[g.Tape] {
			if chain > a.mountedChain {
				a.mountedChain = chain
			}
		} else {
			est.OfflineTapes++
			a.offline++
			a.offlineWork += chain
			if chain > a.maxChain {
				a.maxChain = chain
			}
		}
		est.Seek += seek
		est.Transfer += xfer
	}

	// Library pipeline estimates.
	worst := 0.0
	for lib := range aggs {
		a := &aggs[lib]
		t := a.mountedChain
		if a.offline > 0 {
			drives := m.switchable[lib]
			if drives == 0 {
				return Estimate{}, fmt.Errorf("analytic: library %d has offline groups but no switchable drives", lib)
			}
			rounds := math.Ceil(float64(a.offline) / float64(drives))
			// Each switchable drive processes its share of switch+service
			// chains back to back; the robot serializes the per-switch
			// handling (2 moves) within the library.
			perDrive := rounds*avgSwitch + a.offlineWork/float64(drives)
			robotSerial := float64(a.offline) * (2 * m.hw.CellToDrive) / 1 // one robot
			pipeline := math.Max(perDrive, robotSerial)
			pipeline = math.Max(pipeline, a.maxChain+avgSwitch)
			if pipeline > t {
				t = pipeline
			}
		}
		if t > worst {
			worst = t
			est.BottleneckLib = lib
		}
	}
	est.Response = worst
	// Attribute the switch share as the non-seek/transfer remainder of the
	// bottleneck pipeline, floored at zero (mirrors the §6 metric).
	est.Switch = est.Response
	if a := aggs[est.BottleneckLib]; true {
		est.Switch = est.Response - a.maxChain - a.mountedChain
		if est.Switch < 0 {
			est.Switch = 0
		}
	}
	return est, nil
}

// groupSeek estimates head positioning for one tape group: locate to the
// first requested extent (half the tape's used span on average for a fresh
// mount) plus the internal gaps between requested extents.
func (m *Model) groupSeek(g catalog.TapeGroup) float64 {
	if len(g.Extents) == 0 {
		return 0
	}
	first := g.Extents[0].Start
	last := g.Extents[len(g.Extents)-1].End()
	span := last - first
	var inner int64
	if span > g.Bytes {
		inner = span - g.Bytes
	}
	return m.hw.SeekTime(0, first/2) + m.hw.SeekTime(0, inner)
}

// EstimateSession returns the popularity-weighted mean estimate over the
// workload's predefined requests.
func (m *Model) EstimateSession(w *model.Workload) (Estimate, error) {
	// One Grouper per call, shared by the requests, keeps the Model
	// immutable.
	gr := catalog.NewGrouper(m.cat)
	var out Estimate
	var probSum float64
	var tapesW, offlineW float64
	for i := range w.Requests {
		r := &w.Requests[i]
		e, err := m.estimate(gr, r)
		if err != nil {
			return Estimate{}, err
		}
		p := r.Prob
		probSum += p
		out.Response += p * e.Response
		out.Switch += p * e.Switch
		out.Seek += p * e.Seek
		out.Transfer += p * e.Transfer
		out.Bytes += int64(p * float64(e.Bytes))
		tapesW += p * float64(e.TapesTouched)
		offlineW += p * float64(e.OfflineTapes)
	}
	if probSum > 0 {
		inv := 1 / probSum
		out.Response *= inv
		out.Switch *= inv
		out.Seek *= inv
		out.Transfer *= inv
		out.Bytes = int64(float64(out.Bytes) * inv)
		out.TapesTouched = int(math.Round(tapesW * inv))
		out.OfflineTapes = int(math.Round(offlineW * inv))
	}
	return out, nil
}

// IdealBandwidth returns the hardware ceiling: every drive streaming at
// the native rate.
func IdealBandwidth(hw tape.Hardware) float64 {
	return float64(hw.TotalDrives()) * hw.TransferRate
}

// MinResponse returns the physical floor for transferring `bytes` with the
// whole system: perfect spread over all drives at the native rate.
func MinResponse(hw tape.Hardware, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / IdealBandwidth(hw)
}
