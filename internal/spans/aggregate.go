package spans

// Aggregation: fold a Session's per-request critical-path attributions
// into per-phase distributions and blame shares, extract the slowest
// requests, and derive utilization time series from span boundaries. The
// package deliberately carries its own percentile helper instead of
// importing internal/metrics, so metrics can build its report sections on
// top of spans without an import cycle.

import (
	"math"
	"slices"
	"sort"
	"strconv"

	"paralleltape/internal/trace"
)

// Dist summarizes one per-request quantity across a session.
type Dist struct {
	// Count is the number of samples.
	Count int
	// Total is the sum of samples.
	Total float64
	// Mean is Total / Count (0 for an empty distribution).
	Mean float64
	// P50 is the median (nearest-rank).
	P50 float64
	// P95 is the 95th percentile (nearest-rank).
	P95 float64
	// P99 is the 99th percentile (nearest-rank).
	P99 float64
	// Max is the largest sample.
	Max float64
}

// newDist summarizes a sample slice (consumed: sorted in place).
func newDist(samples []float64) Dist {
	d := Dist{Count: len(samples)}
	if len(samples) == 0 {
		return d
	}
	sort.Float64s(samples)
	for _, v := range samples {
		d.Total += v
	}
	d.Mean = d.Total / float64(len(samples))
	d.P50 = percentile(samples, 0.50)
	d.P95 = percentile(samples, 0.95)
	d.P99 = percentile(samples, 0.99)
	d.Max = samples[len(samples)-1]
	return d
}

// percentile returns the nearest-rank percentile of a sorted sample set.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Breakdown is a session's critical-path phase attribution: where the
// response time of the average (and tail) request actually went.
type Breakdown struct {
	// Requests is the number of requests aggregated.
	Requests int
	// TimedOut counts requests that exceeded their deadline.
	TimedOut int
	// Events is the total number of trace events behind the aggregation.
	Events int
	// Horizon is the simulated time of the last request completion.
	Horizon float64
	// Response is the distribution of reported response times (§6).
	Response Dist
	// Wall is the distribution of mechanical spans (End − Submit); equal
	// to Response unless requests timed out.
	Wall Dist
	// Phases holds one distribution per critical-path phase, indexed by
	// Phase, over the per-request attribution seconds.
	Phases [NumPhases]Dist
}

// Share returns the phase's critical-path blame share in [0, 1]: its
// summed attribution over the summed mechanical span.
func (b *Breakdown) Share(p Phase) float64 {
	if b.Wall.Total <= 0 {
		return 0
	}
	return b.Phases[p].Total / b.Wall.Total
}

// Aggregate folds a session into its phase breakdown.
func Aggregate(s *Session) *Breakdown {
	b := &Breakdown{Requests: len(s.Requests), Events: s.Events}
	resp := make([]float64, 0, len(s.Requests))
	wall := make([]float64, 0, len(s.Requests))
	phase := make([][]float64, NumPhases)
	for i := range phase {
		phase[i] = make([]float64, 0, len(s.Requests))
	}
	for _, r := range s.Requests {
		if r.TimedOut {
			b.TimedOut++
		}
		if r.End > b.Horizon {
			b.Horizon = r.End
		}
		resp = append(resp, r.Response)
		wall = append(wall, r.Wall())
		for i, v := range r.PhaseTotals {
			phase[i] = append(phase[i], v)
		}
	}
	b.Response = newDist(resp)
	b.Wall = newDist(wall)
	for i := range phase {
		b.Phases[i] = newDist(phase[i])
	}
	return b
}

// Slowest returns the session's k slowest requests by reported response
// time, ties broken by request ID, slowest first.
func (s *Session) Slowest(k int) []*Request {
	reqs := slices.Clone(s.Requests)
	slices.SortFunc(reqs, func(a, b *Request) int {
		if a.Response != b.Response {
			if a.Response > b.Response {
				return -1
			}
			return 1
		}
		if a.ID < b.ID {
			return -1
		}
		if a.ID > b.ID {
			return 1
		}
		return 0
	})
	if k > len(reqs) {
		k = len(reqs)
	}
	if k < 0 {
		k = 0
	}
	return reqs[:k]
}

// QueuePoint is one sample of a robot wait-queue depth series, taken at
// a contention event (enqueue, grant, release).
type QueuePoint struct {
	// Name is the resource name ("robot-N").
	Name string
	// T is the sample time.
	T float64
	// Depth is the wait-queue depth immediately after the event.
	Depth int
}

// QueueDepthPoints extracts the robot queue-depth series from the
// session's contention events, stably sorted by (name, time); each
// resource emits its events in deterministic order, so the per-name
// series is deterministic too.
func (s *Session) QueueDepthPoints() []QueuePoint {
	var pts []QueuePoint
	for _, r := range s.Requests {
		for _, ev := range r.Contention {
			switch ev.Kind {
			case trace.KindResourceWait, trace.KindResourceGrant, trace.KindResourceRelease:
				pts = append(pts, QueuePoint{Name: ev.Name, T: ev.T, Depth: int(ev.Queue)})
			}
		}
	}
	slices.SortStableFunc(pts, func(a, b QueuePoint) int {
		if a.Name != b.Name {
			if a.Name < b.Name {
				return -1
			}
			return 1
		}
		if a.T != b.T {
			if a.T < b.T {
				return -1
			}
			return 1
		}
		return 0
	})
	return pts
}

// driveName renders the canonical "L<lib>.D<drive>" component label used
// across the repo's reports.
func driveName(lib, drive int) string {
	return "L" + strconv.Itoa(lib) + ".D" + strconv.Itoa(drive)
}

// BusyInterval is one span of drive or robot activity derived from
// operation boundaries.
type BusyInterval struct {
	// Name is the component ("L<lib>.D<drive>" or "robot-<lib>").
	Name string
	// Start is when the component became busy.
	Start float64
	// End is when the component went idle again.
	End float64
}

// BusyIntervals derives per-drive activity intervals (every operation's
// [Start, End]) and per-robot occupancy intervals (each release event's
// hold span) from the session, sorted by (name, start, end).
func (s *Session) BusyIntervals() []BusyInterval {
	var out []BusyInterval
	for _, r := range s.Requests {
		for _, op := range r.Ops {
			if op.End > op.Start {
				out = append(out, BusyInterval{Name: driveName(op.Lib, op.Drive), Start: op.Start, End: op.End})
			}
		}
		for _, ev := range r.Contention {
			if ev.Kind == trace.KindResourceRelease && ev.Dur > 0 {
				out = append(out, BusyInterval{Name: ev.Name, Start: ev.T - ev.Dur, End: ev.T})
			}
		}
	}
	slices.SortFunc(out, func(a, b BusyInterval) int {
		if a.Name != b.Name {
			if a.Name < b.Name {
				return -1
			}
			return 1
		}
		if a.Start != b.Start {
			if a.Start < b.Start {
				return -1
			}
			return 1
		}
		if a.End != b.End {
			if a.End < b.End {
				return -1
			}
			return 1
		}
		return 0
	})
	return out
}
