package telemetry

import (
	"fmt"
	"sync"

	"paralleltape/internal/trace"
)

// Collector folds the simulator's trace event stream into the standard
// live-metric series. It implements trace.Recorder, so it attaches
// exactly where the exporters do (System.SetRecorder, or one arm of a
// trace.Tee) — the simulator has a single instrumentation path, and with
// no recorder attached the emit sites stay nil-check-only.
//
// All updates are atomic: one Collector may be shared by every worker
// goroutine of an experiment sweep (each worker's System gets the same
// Collector as its recorder). Series semantics and names are documented
// in docs/OBSERVABILITY.md ("Live metrics").
type Collector struct {
	// Events counts every trace event consumed.
	Events *Counter
	// Submitted counts request submissions (kind "submit").
	Submitted *Counter
	// Completed counts request completions (kind "complete").
	Completed *Counter
	// RequestsTarget is the planned total number of request submissions,
	// set by the driver (tapesim's -requests, or runs × requests × seeds
	// for a sweep); the progress reporter derives ETA from it. Zero means
	// unknown.
	RequestsTarget *Gauge
	// BytesMoved sums payload bytes over finished tape-group services
	// (kind "serve-end").
	BytesMoved *Counter
	// Switches counts completed tape switches (kind "mounted").
	Switches *Counter
	// SeekSeconds sums planned seek time over services (kind "seek").
	SeekSeconds *FloatCounter
	// TransferSeconds sums planned transfer time (kind "transfer").
	TransferSeconds *FloatCounter
	// SwitchSeconds sums full switch latencies (kind "mounted").
	SwitchSeconds *FloatCounter
	// RobotWaitSeconds sums time acquirers spent queued for robot arms
	// (kind "resource-grant").
	RobotWaitSeconds *FloatCounter
	// RobotQueueDepth is the queue depth carried by the most recent robot
	// contention event (wait/grant/release).
	RobotQueueDepth *Gauge
	// SimTime is the high-water mark of the simulated clock across all
	// systems feeding this collector.
	SimTime *FloatGauge
	// RunsCompleted counts finished sweep runs (incremented by
	// internal/experiments, not by trace events).
	RunsCompleted *Counter
	// RunsTarget is the planned total number of sweep runs (gauge, set by
	// internal/experiments). Zero outside sweeps.
	RunsTarget *Gauge
	// ResponseSeconds is the streaming histogram of request response
	// times (kind "complete", Dur).
	ResponseSeconds *Histogram
	// SwitchLatencySeconds is the streaming histogram of full switch
	// latencies (kind "mounted", Dur).
	SwitchLatencySeconds *Histogram
	// RequestBytes is the streaming histogram of request payload sizes
	// (kind "complete", Bytes).
	RequestBytes *Histogram

	// Resilience series (docs/RESILIENCE.md); all stay zero on a
	// failure-free run.

	// DriveFailures counts drives taken out of service (kind
	// "drive-failed", manual or injected).
	DriveFailures *Counter
	// DriveRepairs counts failed drives returned to service (kind
	// "drive-repaired").
	DriveRepairs *Counter
	// RobotOutages counts robot-arm outages observed by switches (kind
	// "robot-failed").
	RobotOutages *Counter
	// MediaErrors counts tape groups lost to permanent media errors (kind
	// "media-error").
	MediaErrors *Counter
	// OpRetries counts fault-interrupted operations re-dispatched to
	// surviving drives (kind "op-retried").
	OpRetries *Counter
	// RequestTimeouts counts requests that exceeded their deadline (kind
	// "request-timeout").
	RequestTimeouts *Counter
	// FailedBytes sums the payload of tape groups lost to media errors
	// (kind "media-error", Bytes).
	FailedBytes *Counter

	// QueueDepth is the number of drive operations (serve or switch
	// spans) currently in flight, sampled at span boundaries: a
	// span-stamped start event ("serve-start", "rewind") raises it, the
	// matching end event ("serve-end", "mounted", or a span-stamped
	// "drive-failed"/"media-error" interruption) lowers it.
	QueueDepth *Gauge

	// reg is retained for lazy registration of the per-drive
	// busy-fraction gauges (tapesim_drive_busy_fraction_L<lib>_D<drive>)
	// as span boundaries reveal drives.
	reg *Registry
	// mu guards the span-boundary state below. Every other series is
	// atomic and lock-free; only span-carrying boundary events (a few
	// per request) take this lock. When several concurrent systems of a
	// sweep share one collector their span IDs may collide, so the busy
	// fractions are approximate in that mode; single-run tapesim values
	// are exact.
	mu sync.Mutex
	// openSpans maps an in-flight span ID to its start state.
	openSpans map[int64]spanStart
	// driveBusy accumulates per-drive busy seconds over closed spans.
	driveBusy map[driveKey]float64
	// driveGauges holds the lazily registered busy-fraction gauges.
	driveGauges map[driveKey]*FloatGauge
}

// spanStart records where and when an operation span opened.
type spanStart struct {
	lib, drive int
	t          float64
}

// driveKey identifies one drive across libraries.
type driveKey struct{ lib, drive int }

// NewCollector registers the standard series on reg and returns the
// collector updating them.
func NewCollector(reg *Registry) *Collector {
	return &Collector{
		Events:           reg.NewCounter("tapesim_events_total", "trace events consumed"),
		Submitted:        reg.NewCounter("tapesim_requests_submitted_total", "request submissions"),
		Completed:        reg.NewCounter("tapesim_requests_completed_total", "request completions"),
		RequestsTarget:   reg.NewGauge("tapesim_requests_target", "planned total request submissions (0 = unknown)"),
		BytesMoved:       reg.NewCounter("tapesim_bytes_moved_total", "payload bytes transferred by finished services"),
		Switches:         reg.NewCounter("tapesim_tape_switches_total", "completed tape switches"),
		SeekSeconds:      reg.NewFloatCounter("tapesim_seek_seconds_total", "summed planned seek time"),
		TransferSeconds:  reg.NewFloatCounter("tapesim_transfer_seconds_total", "summed planned transfer time"),
		SwitchSeconds:    reg.NewFloatCounter("tapesim_switch_seconds_total", "summed full switch latency"),
		RobotWaitSeconds: reg.NewFloatCounter("tapesim_robot_wait_seconds_total", "summed robot queue wait time"),
		RobotQueueDepth:  reg.NewGauge("tapesim_robot_queue_depth", "robot queue depth after the last contention event"),
		SimTime:          reg.NewFloatGauge("tapesim_sim_time_seconds", "simulated clock high-water mark"),
		RunsCompleted:    reg.NewCounter("tapesim_runs_completed_total", "finished experiment sweep runs"),
		RunsTarget:       reg.NewGauge("tapesim_runs_target", "planned experiment sweep runs (0 = not a sweep)"),
		ResponseSeconds: reg.NewHistogram("tapesim_response_seconds",
			"request response time distribution", HistogramOptions{}),
		SwitchLatencySeconds: reg.NewHistogram("tapesim_switch_latency_seconds",
			"full tape-switch latency distribution", HistogramOptions{}),
		RequestBytes: reg.NewHistogram("tapesim_request_bytes",
			"request payload size distribution", HistogramOptions{Min: 1, Max: 1e15}),
		DriveFailures:   reg.NewCounter("tapesim_drive_failures_total", "drives taken out of service"),
		DriveRepairs:    reg.NewCounter("tapesim_drive_repairs_total", "failed drives returned to service"),
		RobotOutages:    reg.NewCounter("tapesim_robot_outages_total", "robot-arm outages observed by switches"),
		MediaErrors:     reg.NewCounter("tapesim_media_errors_total", "tape groups lost to permanent media errors"),
		OpRetries:       reg.NewCounter("tapesim_op_retries_total", "fault-interrupted operations re-dispatched"),
		RequestTimeouts: reg.NewCounter("tapesim_request_timeouts_total", "requests that exceeded their deadline"),
		FailedBytes:     reg.NewCounter("tapesim_failed_bytes_total", "payload bytes lost to media errors"),
		QueueDepth: reg.NewGauge("tapesim_queue_depth",
			"drive operations (serve or switch spans) in flight, sampled at span boundaries"),
		reg:         reg,
		openSpans:   make(map[int64]spanStart),
		driveBusy:   make(map[driveKey]float64),
		driveGauges: make(map[driveKey]*FloatGauge),
	}
}

// Record consumes one trace event (trace.Recorder).
func (c *Collector) Record(ev trace.Event) {
	c.Events.Inc()
	c.SimTime.SetMax(ev.T)
	if ev.Span != 0 {
		c.spanBoundary(ev)
	}
	switch ev.Kind {
	case trace.KindSubmit:
		c.Submitted.Inc()
	case trace.KindComplete:
		c.Completed.Inc()
		c.ResponseSeconds.Observe(ev.Dur)
		c.RequestBytes.Observe(float64(ev.Bytes))
	case trace.KindSeek:
		c.SeekSeconds.Add(ev.Dur)
	case trace.KindTransfer:
		c.TransferSeconds.Add(ev.Dur)
	case trace.KindServeEnd:
		if ev.Bytes > 0 {
			c.BytesMoved.Add(uint64(ev.Bytes))
		}
	case trace.KindMounted:
		c.Switches.Inc()
		c.SwitchSeconds.Add(ev.Dur)
		c.SwitchLatencySeconds.Observe(ev.Dur)
	case trace.KindResourceWait, trace.KindResourceRelease:
		c.RobotQueueDepth.Set(int64(ev.Queue))
	case trace.KindResourceGrant:
		c.RobotQueueDepth.Set(int64(ev.Queue))
		c.RobotWaitSeconds.Add(ev.Dur)
	case trace.KindDriveFailed:
		c.DriveFailures.Inc()
	case trace.KindDriveRepaired:
		c.DriveRepairs.Inc()
	case trace.KindRobotFailed:
		c.RobotOutages.Inc()
	case trace.KindMediaError:
		c.MediaErrors.Inc()
		if ev.Bytes > 0 {
			c.FailedBytes.Add(uint64(ev.Bytes))
		}
	case trace.KindOpRetried:
		c.OpRetries.Inc()
	case trace.KindRequestTimedOut:
		c.RequestTimeouts.Inc()
	}
}

// spanBoundary folds one span-stamped event into the span-fed series:
// the in-flight operation gauge and the per-drive busy fractions. Only
// boundary kinds change state, and only they take the lock — interior
// span events (seek, transfer, robot, load, ...) pass through without it.
func (c *Collector) spanBoundary(ev trace.Event) {
	switch ev.Kind {
	case trace.KindServeStart, trace.KindRewind:
		c.mu.Lock()
		defer c.mu.Unlock()
		c.openSpans[ev.Span] = spanStart{lib: int(ev.Lib), drive: int(ev.Drive), t: ev.T}
	case trace.KindServeEnd, trace.KindMounted, trace.KindDriveFailed, trace.KindMediaError:
		c.mu.Lock()
		defer c.mu.Unlock()
		st, ok := c.openSpans[ev.Span]
		if !ok {
			return
		}
		delete(c.openSpans, ev.Span)
		k := driveKey{lib: st.lib, drive: st.drive}
		c.driveBusy[k] += ev.T - st.t
		g := c.driveGauges[k]
		if g == nil {
			g = c.reg.NewFloatGauge(
				fmt.Sprintf("tapesim_drive_busy_fraction_L%d_D%d", k.lib, k.drive),
				fmt.Sprintf("fraction of simulated time drive %d of library %d spent serving or switching", k.drive, k.lib))
			c.driveGauges[k] = g
		}
		if ev.T > 0 {
			g.Set(c.driveBusy[k] / ev.T)
		}
	default:
		return
	}
	c.QueueDepth.Set(int64(len(c.openSpans)))
}
