package metrics

// Timeline aggregation: reduce a recorded trace (internal/trace) to
// per-component activity summaries — busy/idle utilization per drive,
// robot-arm occupancy and queueing per library, and a queue-depth time
// series per robot. This is the data behind the run report exported by
// cmd/tapesim -report and documented in docs/OBSERVABILITY.md.

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"paralleltape/internal/spans"
	"paralleltape/internal/trace"
)

// DriveTimeline summarizes one drive's activity over a trace.
type DriveTimeline struct {
	Library, Drive  int
	Services        int     // tape groups served
	Mounts          int     // switches completed onto this drive
	SeekSeconds     float64 // planned seek time across services
	TransferSeconds float64 // planned transfer time across services
	ServeSeconds    float64 // serve spans (seek + transfer)
	SwitchSeconds   float64 // rewind→mounted spans, incl. robot queueing
	IdleSeconds     float64 // horizon − serve − switch
	BytesMoved      int64
}

// Utilization returns the fraction of the horizon the drive was active
// (serving or switching), in [0, 1].
func (d DriveTimeline) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	return (d.ServeSeconds + d.SwitchSeconds) / horizon
}

// RobotTimeline summarizes one library's robot arm over a trace.
type RobotTimeline struct {
	Library     int
	Grants      int     // ownership periods
	MoveSeconds float64 // cartridge stow+fetch motion
	HoldSeconds float64 // total arm-held time (≥ MoveSeconds)
	WaitSeconds float64 // total time acquirers spent queued
	MaxQueue    int     // peak queue depth observed
}

// QueueSample is one point of a queue-depth time series: the depth of a
// robot's wait queue immediately after the event at time T.
type QueueSample struct {
	T     float64
	Depth int
}

// QueueSeries is the queue-depth time series of one named resource.
type QueueSeries struct {
	Name    string
	Samples []QueueSample
}

// Timeline is the per-component aggregation of one recorded trace.
type Timeline struct {
	Horizon  float64 // simulated time of the last event
	Requests int     // submit events seen
	Switches int     // mounted events seen

	// Component totals across all drives (sums of span durations).
	TotalSeek, TotalTransfer, TotalSwitch float64

	Drives []DriveTimeline // sorted by (library, drive)
	Robots []RobotTimeline // sorted by library
	Queues []QueueSeries   // sorted by resource name

	// Phases is the critical-path phase attribution of the run,
	// reconstructed from the same trace by internal/spans. Nil when the
	// trace is not reconstructible (for example a ring buffer that dropped
	// the head of the stream); the report then omits the phase section.
	Phases *spans.Breakdown
}

// BuildTimeline reduces a trace to per-component timelines. Events must be
// in emission order (as any Recorder receives them). Unknown event kinds
// are ignored, so traces from newer schema revisions still aggregate.
func BuildTimeline(events []trace.Event) *Timeline {
	tl := &Timeline{}
	type dk struct{ lib, drive int }
	drives := make(map[dk]*DriveTimeline)
	robots := make(map[int]*RobotTimeline)
	// Each resource name's queue series sits beside the robot library
	// parsed from that name, once per name rather than once per event
	// (-1 for names that are not "robot-N").
	type queue struct {
		QueueSeries
		lib int
	}
	queues := make(map[string]*queue)

	driveOf := func(ev trace.Event) *DriveTimeline {
		k := dk{ev.Lib, ev.Drive}
		d := drives[k]
		if d == nil {
			d = &DriveTimeline{Library: ev.Lib, Drive: ev.Drive}
			drives[k] = d
		}
		return d
	}
	robotOf := func(lib int) *RobotTimeline {
		r := robots[lib]
		if r == nil {
			r = &RobotTimeline{Library: lib}
			robots[lib] = r
		}
		return r
	}
	sample := func(ev trace.Event) *queue {
		q := queues[ev.Name]
		if q == nil {
			q = &queue{QueueSeries: QueueSeries{Name: ev.Name}, lib: -1}
			if n, ok := robotLibrary(ev.Name); ok {
				q.lib = n
			}
			queues[ev.Name] = q
		}
		q.Samples = append(q.Samples, QueueSample{T: ev.T, Depth: ev.Queue})
		return q
	}

	for _, ev := range events {
		if ev.T > tl.Horizon {
			tl.Horizon = ev.T
		}
		switch ev.Kind {
		case trace.KindSubmit:
			tl.Requests++
		case trace.KindSeek:
			driveOf(ev).SeekSeconds += ev.Dur
			tl.TotalSeek += ev.Dur
		case trace.KindTransfer:
			driveOf(ev).TransferSeconds += ev.Dur
			tl.TotalTransfer += ev.Dur
		case trace.KindServeEnd:
			d := driveOf(ev)
			d.Services++
			d.ServeSeconds += ev.Dur
			d.BytesMoved += ev.Bytes
		case trace.KindMounted:
			d := driveOf(ev)
			d.Mounts++
			d.SwitchSeconds += ev.Dur
			tl.TotalSwitch += ev.Dur
			tl.Switches++
		case trace.KindResourceWait, trace.KindResourceGrant, trace.KindResourceRelease:
			// Robot arms are the only Resources in the simulator; key the
			// aggregate by name and fold per-library stats below.
			if lib := sample(ev).lib; lib >= 0 {
				r := robotOf(lib)
				switch ev.Kind {
				case trace.KindResourceWait:
					if ev.Queue > r.MaxQueue {
						r.MaxQueue = ev.Queue
					}
				case trace.KindResourceGrant:
					r.Grants++
					r.WaitSeconds += ev.Dur
				case trace.KindResourceRelease:
					r.HoldSeconds += ev.Dur
				}
			}
		case trace.KindRobot:
			robotOf(ev.Lib).MoveSeconds += ev.Dur
		}
	}

	for _, d := range drives {
		d.IdleSeconds = tl.Horizon - d.ServeSeconds - d.SwitchSeconds
		if d.IdleSeconds < 0 {
			d.IdleSeconds = 0
		}
		tl.Drives = append(tl.Drives, *d)
	}
	// One entry per drive / library / queue name, so each key below is a
	// total order and the unstable slices.SortFunc is deterministic.
	slices.SortFunc(tl.Drives, func(a, b DriveTimeline) int {
		if a.Library != b.Library {
			return a.Library - b.Library
		}
		return a.Drive - b.Drive
	})
	for _, r := range robots {
		tl.Robots = append(tl.Robots, *r)
	}
	slices.SortFunc(tl.Robots, func(a, b RobotTimeline) int { return a.Library - b.Library })
	for _, q := range queues {
		tl.Queues = append(tl.Queues, q.QueueSeries)
	}
	slices.SortFunc(tl.Queues, func(a, b QueueSeries) int { return strings.Compare(a.Name, b.Name) })
	// Phase attribution is best-effort: a complete trace reconstructs into
	// span trees, a truncated one (capped buffer) simply drops the section.
	if sess, err := spans.Build(events); err == nil {
		tl.Phases = spans.Aggregate(sess)
	}
	return tl
}

// robotLibrary parses the library index out of a "robot-N" resource name.
func robotLibrary(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, "robot-%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// WriteText renders the run report in the documented text format: a run
// summary, the response-time component totals, per-drive and per-robot
// timelines, and the robot queue-depth series (docs/OBSERVABILITY.md).
func (tl *Timeline) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"run: %d requests, %d switches, horizon %.2fs\ncomponents: seek %.2fs  transfer %.2fs  switch %.2fs\n\n",
		tl.Requests, tl.Switches, tl.Horizon, tl.TotalSeek, tl.TotalTransfer, tl.TotalSwitch); err != nil {
		return err
	}
	dt := NewTable("per-drive timeline",
		"drive", "services", "mounts", "seek_s", "transfer_s", "switch_s", "idle_s", "util%", "moved_GB")
	for _, d := range tl.Drives {
		dt.AddRow(
			fmt.Sprintf("L%d.D%d", d.Library, d.Drive),
			fmt.Sprintf("%d", d.Services),
			fmt.Sprintf("%d", d.Mounts),
			fmt.Sprintf("%.2f", d.SeekSeconds),
			fmt.Sprintf("%.2f", d.TransferSeconds),
			fmt.Sprintf("%.2f", d.SwitchSeconds),
			fmt.Sprintf("%.2f", d.IdleSeconds),
			fmt.Sprintf("%.1f", 100*d.Utilization(tl.Horizon)),
			fmt.Sprintf("%.2f", float64(d.BytesMoved)/1e9),
		)
	}
	if err := dt.Render(w); err != nil {
		return err
	}
	rt := NewTable("\nper-robot timeline",
		"robot", "grants", "move_s", "hold_s", "wait_s", "max_queue")
	for _, r := range tl.Robots {
		rt.AddRow(
			fmt.Sprintf("L%d", r.Library),
			fmt.Sprintf("%d", r.Grants),
			fmt.Sprintf("%.2f", r.MoveSeconds),
			fmt.Sprintf("%.2f", r.HoldSeconds),
			fmt.Sprintf("%.2f", r.WaitSeconds),
			fmt.Sprintf("%d", r.MaxQueue),
		)
	}
	if err := rt.Render(w); err != nil {
		return err
	}
	if tl.Phases != nil {
		pt := NewTable("\nper-phase breakdown (critical path)",
			"phase", "total_s", "share%", "mean_s", "p50_s", "p95_s")
		for _, p := range spans.AllPhases() {
			d := tl.Phases.Phases[p]
			pt.AddRow(
				p.String(),
				fmt.Sprintf("%.2f", d.Total),
				fmt.Sprintf("%.2f", 100*tl.Phases.Share(p)),
				fmt.Sprintf("%.2f", d.Mean),
				fmt.Sprintf("%.2f", d.P50),
				fmt.Sprintf("%.2f", d.P95),
			)
		}
		if err := pt.Render(w); err != nil {
			return err
		}
	}
	for _, q := range tl.Queues {
		peak := 0
		for _, s := range q.Samples {
			if s.Depth > peak {
				peak = s.Depth
			}
		}
		if _, err := fmt.Fprintf(w, "\nqueue %s: %d samples, peak depth %d\n",
			q.Name, len(q.Samples), peak); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the run report as sectioned CSV: every row starts with
// a section tag (run, component, drive, robot, queue) so one file carries
// all report tables (docs/OBSERVABILITY.md documents each column set).
func (tl *Timeline) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "section,key,value\nrun,requests,%d\nrun,switches,%d\nrun,horizon_s,%g\n",
		tl.Requests, tl.Switches, tl.Horizon); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "component,seek_s,%g\ncomponent,transfer_s,%g\ncomponent,switch_s,%g\n",
		tl.TotalSeek, tl.TotalTransfer, tl.TotalSwitch); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "drive,library,drive,services,mounts,seek_s,transfer_s,switch_s,idle_s,moved_bytes"); err != nil {
		return err
	}
	for _, d := range tl.Drives {
		if _, err := fmt.Fprintf(w, "drive,%d,%d,%d,%d,%g,%g,%g,%g,%d\n",
			d.Library, d.Drive, d.Services, d.Mounts,
			d.SeekSeconds, d.TransferSeconds, d.SwitchSeconds, d.IdleSeconds, d.BytesMoved); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "robot,library,grants,move_s,hold_s,wait_s,max_queue"); err != nil {
		return err
	}
	for _, r := range tl.Robots {
		if _, err := fmt.Fprintf(w, "robot,%d,%d,%g,%g,%g,%d\n",
			r.Library, r.Grants, r.MoveSeconds, r.HoldSeconds, r.WaitSeconds, r.MaxQueue); err != nil {
			return err
		}
	}
	if tl.Phases != nil {
		if _, err := fmt.Fprintln(w, "phase,name,total_s,share,mean_s,p50_s,p95_s,p99_s,max_s"); err != nil {
			return err
		}
		for _, p := range spans.AllPhases() {
			d := tl.Phases.Phases[p]
			if _, err := fmt.Fprintf(w, "phase,%s,%g,%g,%g,%g,%g,%g,%g\n",
				p.String(), d.Total, tl.Phases.Share(p), d.Mean, d.P50, d.P95, d.P99, d.Max); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintln(w, "queue,name,t_s,depth"); err != nil {
		return err
	}
	for _, q := range tl.Queues {
		for _, s := range q.Samples {
			if _, err := fmt.Fprintf(w, "queue,%s,%g,%d\n", q.Name, s.T, s.Depth); err != nil {
				return err
			}
		}
	}
	return nil
}
