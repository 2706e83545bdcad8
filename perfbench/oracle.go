package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"paralleltape/internal/analytic"
	"paralleltape/internal/experiments"
	"paralleltape/internal/model"
	"paralleltape/internal/tape"
	"paralleltape/internal/tapesys"
)

// relTol absorbs floating-point rounding in checks whose two sides are
// computed along different paths (a sum of per-extent transfer times
// against a byte count); it is far below any modelled quantity.
const relTol = 1e-9

// requestBytes returns the payload of r summed from the workload's object
// sizes, independently of the catalog the simulator reads.
func requestBytes(w *model.Workload, r *model.Request) int64 {
	var n int64
	for _, id := range r.Objects {
		n += w.Objects[id].Size
	}
	return n
}

// checkRequest holds one simulated request to oracles taken from outside
// the simulator: the workload's own sizes, the analytic model's physical
// floor and ceiling, and the §6 metric definitions. healthy selects the
// extra checks that hold on a run without faults or timeouts.
func checkRequest(hw tape.Hardware, healthy bool, m tapesys.RequestMetrics, wantBytes int64) error {
	for _, v := range []float64{m.Response, m.Seek, m.Transfer, m.Switch, m.RobotWait,
		m.SumSeek, m.SumTransfer, m.MountedRatio} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("request %d: non-finite or negative metric in %+v", m.Request, m)
		}
	}
	if m.Bytes != wantBytes {
		return fmt.Errorf("request %d: %d bytes, workload says %d", m.Request, m.Bytes, wantBytes)
	}
	// Response ≥ analytic.MinResponse(Bytes) is the same statement as
	// bandwidth ≤ analytic.IdealBandwidth: no request beats every drive
	// streaming at the native rate.
	if floor := analytic.MinResponse(hw, m.Bytes); m.Response < floor {
		return fmt.Errorf("request %d: response %gs beats the hardware ceiling of %g B/s (floor %gs)",
			m.Request, m.Response, analytic.IdealBandwidth(hw), floor)
	}
	if st := m.Seek + m.Transfer; m.Response < st*(1-relTol) {
		return fmt.Errorf("request %d: response %gs shorter than its seek+transfer %gs", m.Request, m.Response, st)
	}
	if m.BytesServed < 0 || m.BytesServed > m.Bytes {
		return fmt.Errorf("request %d: served %d of %d bytes", m.Request, m.BytesServed, m.Bytes)
	}
	if !healthy {
		return nil
	}
	switch {
	case m.BytesServed != m.Bytes:
		return fmt.Errorf("request %d: healthy run served %d of %d bytes", m.Request, m.BytesServed, m.Bytes)
	case m.FailedGroups != 0 || m.FailedBytes != 0 || m.MediaErrors != 0 || m.Retries != 0 || m.TimedOut:
		return fmt.Errorf("request %d: healthy run reports degraded service %+v", m.Request, m)
	}
	if moved := m.SumTransfer * hw.TransferRate; math.Abs(moved-float64(m.Bytes)) > relTol*float64(m.Bytes) {
		return fmt.Errorf("request %d: transfer time moves %.0f bytes, request has %d", m.Request, moved, m.Bytes)
	}
	return nil
}

// rowHardware returns the hardware an exhibit row ran on. Rows do not
// carry it, so this mirrors the two exhibits that vary hardware: fig8
// varies the library count (X) and tech the transfer-rate multiple (X).
func rowHardware(base tape.Hardware, reportID string, row experiments.Row) tape.Hardware {
	hw := base
	switch reportID {
	case "fig8":
		hw.Libraries = int(row.X)
	case "tech":
		hw.TransferRate *= row.X
	}
	return hw
}

// checkReports holds every exhibit row to its oracles: no run error, and
// a mean bandwidth at or below its own hardware's ceiling. It returns the
// number of rows checked and the failures.
func checkReports(base tape.Hardware, reps []*experiments.Report) (rows int, fails []error) {
	for _, rep := range reps {
		for _, row := range rep.Rows {
			rows++
			if row.Err != nil {
				fails = append(fails, fmt.Errorf("%s [%s %s]: %w", rep.ID, row.Label, row.Scheme, row.Err))
				continue
			}
			ceil := analytic.IdealBandwidth(rowHardware(base, rep.ID, row))
			if bw := row.Stats.MeanBandwidth; bw > ceil*(1+relTol) || math.IsNaN(bw) {
				fails = append(fails, fmt.Errorf("%s [%s %s]: bandwidth %g above ceiling %g",
					rep.ID, row.Label, row.Scheme, bw, ceil))
			}
		}
	}
	return rows, fails
}

// digestRequests hashes every field of every per-request result, so two
// runs with equal digests simulated byte-identical results.
func digestRequests(ms []tapesys.RequestMetrics) string {
	h := sha256.New()
	for _, m := range ms {
		putInts(h, int64(m.Request), m.Bytes, int64(m.Switches), int64(m.TapesTouched),
			int64(m.DrivesUsed), m.BytesServed, int64(m.Retries), int64(m.MediaErrors),
			int64(m.FailedGroups), m.FailedBytes)
		putFloats(h, m.Response, m.Seek, m.Transfer, m.Switch, m.RobotWait, m.SumSeek,
			m.SumTransfer, m.MountedRatio)
		timedOut := int64(0)
		if m.TimedOut {
			timedOut = 1
		}
		putInts(h, timedOut)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestReports hashes every exhibit's machine-readable rows (the JSON
// tapebench writes, whose floats round-trip exactly).
func digestReports(reps []*experiments.Report) (string, error) {
	h := sha256.New()
	for _, rep := range reps {
		if err := rep.WriteJSON(h); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func putInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func putFloats(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}
