package tapesys

import (
	"fmt"
	"io"
	"slices"

	"paralleltape/internal/sim"
	"paralleltape/internal/trace"
)

// Tracing plumbing: the System emits typed trace events (schema in
// internal/trace, documented in docs/OBSERVABILITY.md) through an
// attached Recorder. The same recorder is installed on the simulation
// engine, so sim-level contention events (robot queue waits, grants,
// releases, latch completions) interleave with the tape-system spans in
// one time-ordered stream.

// SetRecorder attaches a trace recorder to the system and its engine; nil
// disables tracing. With no recorder attached the simulation hot path
// performs no tracing work at all.
func (s *System) SetRecorder(r trace.Recorder) {
	s.rec = r
	s.eng.SetRecorder(r)
}

// EnableTrace starts in-memory event recording (keeping at most limit
// events; limit <= 0 means unbounded) and returns the live buffer.
func (s *System) EnableTrace(limit int) *trace.Buffer {
	b := trace.NewBuffer(limit)
	s.SetRecorder(b)
	return b
}

// DisableTrace stops recording.
func (s *System) DisableTrace() { s.SetRecorder(nil) }

// DriveStats summarizes one drive's lifetime activity.
type DriveStats struct {
	Library, Drive int
	BusySeconds    float64 // seeking + transferring
	SwitchSeconds  float64 // rewind/unload/robot-wait/load time
	BytesMoved     int64
	Mounts         int
	Failed         bool
}

// DriveReport returns per-drive statistics in (library, drive) order.
func (s *System) DriveReport() []DriveStats {
	var out []DriveStats
	for _, l := range s.libs {
		for _, d := range l.drives {
			out = append(out, DriveStats{
				Library:       d.lib,
				Drive:         d.idx,
				BusySeconds:   d.busySeconds,
				SwitchSeconds: d.switchSeconds,
				BytesMoved:    d.bytesMoved,
				Mounts:        d.mounts,
				Failed:        d.failed,
			})
		}
	}
	return out
}

// RobotStats summarizes one library robot.
type RobotStats struct {
	Library      int
	Stats        sim.ResourceStats
	UtilPercent  float64 // busy share of the elapsed simulated time
	WaitPerGrant float64
}

// RobotReport returns per-library robot statistics.
func (s *System) RobotReport() []RobotStats {
	elapsed := s.Now()
	var out []RobotStats
	for _, l := range s.libs {
		st := l.robot.Stats()
		rs := RobotStats{Library: l.idx, Stats: st}
		if elapsed > 0 {
			rs.UtilPercent = 100 * st.BusyTotal / elapsed
		}
		if st.Acquisitions > 0 {
			rs.WaitPerGrant = st.WaitTotal / float64(st.Acquisitions)
		}
		out = append(out, rs)
	}
	return out
}

// WriteUtilization renders drive and robot utilization tables.
func (s *System) WriteUtilization(w io.Writer) error {
	elapsed := s.Now()
	if _, err := fmt.Fprintf(w, "simulated time: %.1fs\n\ndrive      busy%%  switch%%  mounts  moved\n", elapsed); err != nil {
		return err
	}
	drives := s.DriveReport()
	// One line per drive: (Library, Drive) is a total order, so the
	// unstable slices.SortFunc is deterministic.
	slices.SortFunc(drives, func(a, b DriveStats) int {
		if a.Library != b.Library {
			return a.Library - b.Library
		}
		return a.Drive - b.Drive
	})
	for _, d := range drives {
		busyPct, switchPct := 0.0, 0.0
		if elapsed > 0 {
			busyPct = 100 * d.BusySeconds / elapsed
			switchPct = 100 * d.SwitchSeconds / elapsed
		}
		flag := ""
		if d.Failed {
			flag = "  FAILED"
		}
		if _, err := fmt.Fprintf(w, "L%d.D%-2d     %5.1f  %6.1f   %5d  %8.1f GB%s\n",
			d.Library, d.Drive, busyPct, switchPct, d.Mounts, float64(d.BytesMoved)/1e9, flag); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\nrobot   util%%   grants  wait/grant\n"); err != nil {
		return err
	}
	for _, r := range s.RobotReport() {
		if _, err := fmt.Fprintf(w, "L%-2d     %5.1f   %6d  %9.2fs\n",
			r.Library, r.UtilPercent, r.Stats.Acquisitions, r.WaitPerGrant); err != nil {
			return err
		}
	}
	return nil
}

// FailDrive permanently takes a drive out of service: it is never
// auto-repaired, and once failed the drive never serves or switches again.
// Pinned drives lose their pin — their content becomes switchable like any
// offline tape. Called between requests (the historical, still-convenient
// use) the mounted tape is returned to its cell immediately; if the drive
// has an operation chain in flight, the chain aborts at its next stage
// boundary and the recovery layer re-dispatches the interrupted group onto
// a surviving drive (see docs/RESILIENCE.md). It fails only if the drive
// does not exist or is already failed.
func (s *System) FailDrive(library, drive int) error {
	if library < 0 || library >= len(s.libs) {
		return fmt.Errorf("tapesys: no library %d", library)
	}
	l := s.libs[library]
	if drive < 0 || drive >= len(l.drives) {
		return fmt.Errorf("tapesys: no drive %d in library %d", drive, library)
	}
	d := l.drives[drive]
	if d.failed {
		return fmt.Errorf("tapesys: drive L%d.D%d already failed", library, drive)
	}
	d.failed = true
	d.manual = true
	d.pinned = false
	d.repairAt = 0
	if d.mounted >= 0 && !d.busy {
		d.mounted = -1
		d.headPos = 0
	}
	s.emit(trace.Event{Kind: trace.KindDriveFailed, Lib: int32(library), Drive: int32(drive), Tape: -1, Req: -1})
	return nil
}

// FailedDrives returns the count of out-of-service drives.
func (s *System) FailedDrives() int {
	n := 0
	for _, l := range s.libs {
		for _, d := range l.drives {
			if d.failed {
				n++
			}
		}
	}
	return n
}
