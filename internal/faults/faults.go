// Package faults provides the seed-deterministic fault models behind the
// simulator's resilience layer (docs/RESILIENCE.md): stochastic drive and
// robot outage timelines driven by MTBF and repair-time distributions,
// scripted outages for reproducible scenarios, and permanent media errors
// drawn per cartridge read.
//
// # Determinism contract
//
// Every random draw comes from a private SplitMix64 stream derived from
// Profile.Seed and the identity of the device alone — never from the
// workload or the wall clock — so a device's failure schedule is a pure
// function of (seed, device). The tape-system simulator queries the
// injector with non-decreasing per-device times (operation boundaries on
// that device), which keeps the lazily sampled timelines O(1) amortized
// per query and the resulting traces and exhibit tables byte-identical
// per seed (docs/ARCHITECTURE.md).
//
// # Concurrency
//
// An Injector is not safe for concurrent use: it mutates per-device state
// (one timeline per drive and robot, one read counter per cartridge) on
// every query, and belongs to the one System that queries it. The shared
// Profile is read-only after New, so one Profile may seed many injectors.
package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"paralleltape/internal/dist"
	"paralleltape/internal/rng"
)

// Sampler draws positive durations (simulated seconds) from an injected
// deterministic stream. dist.Exponential and dist.BoundedPareto satisfy it.
type Sampler interface {
	// Sample draws one duration from src.
	Sample(src *rng.Source) float64
}

// Default repair-time means (simulated seconds) used when a Profile enables
// stochastic failures without naming a repair distribution.
const (
	// DefaultDriveRepairMean is the default mean drive repair time: 30
	// simulated minutes (swap in a hot spare, rethread, recalibrate).
	DefaultDriveRepairMean = 1800.0
	// DefaultRobotRepairMean is the default mean robot repair time: 15
	// simulated minutes (clear a picker jam).
	DefaultRobotRepairMean = 900.0
)

// DriveOutage scripts one down interval for a specific drive. Scripted
// outages make failure scenarios exactly reproducible in tests, golden
// traces, and examples; a drive with any scripted outage ignores the
// stochastic DriveMTBF stream entirely.
type DriveOutage struct {
	// Library is the library index of the drive.
	Library int
	// Drive is the library-local drive index.
	Drive int
	// At is the failure instant in simulated seconds.
	At float64
	// Duration is the repair time; the drive returns to service at
	// At+Duration. Must be positive.
	Duration float64
}

// RobotOutage scripts one down interval for a library's robot arm, with the
// same semantics as DriveOutage (scripted robots ignore RobotMTBF).
type RobotOutage struct {
	// Library is the library whose robot fails.
	Library int
	// At is the failure instant in simulated seconds.
	At float64
	// Duration is the repair time. Must be positive.
	Duration float64
}

// MediaFault scripts one permanent media error: the Read-th read of the
// named cartridge fails partway through, independent of the stochastic
// MediaErrorPerRead draw.
type MediaFault struct {
	// Library is the library index of the cartridge.
	Library int
	// Tape is the library-local cartridge index.
	Tape int
	// Read is the 1-based ordinal of the failing read (1 = the first read
	// of this cartridge in the run).
	Read int
	// Frac is where within the service span the error surfaces, in (0, 1].
	Frac float64
}

// Profile configures the fault models. The zero value injects nothing;
// attach a profile through tapesys.Options.Faults. All times are simulated
// seconds.
type Profile struct {
	// Seed derives every stochastic failure stream. Schedules are a pure
	// function of (Seed, device identity); two systems sharing a profile
	// replay identical fault timelines.
	Seed uint64
	// DriveMTBF is the mean up-time between drive failures (exponentially
	// distributed); 0 disables stochastic drive failures.
	DriveMTBF float64
	// DriveRepair samples drive repair durations; nil selects
	// dist.Exponential{Mean: DefaultDriveRepairMean}.
	DriveRepair Sampler
	// RobotMTBF is the mean up-time between robot-arm failures; 0 disables
	// stochastic robot failures.
	RobotMTBF float64
	// RobotRepair samples robot repair durations; nil selects
	// dist.Exponential{Mean: DefaultRobotRepairMean}.
	RobotRepair Sampler
	// MediaErrorPerRead is the probability that one cartridge read hits a
	// permanent media error (each read of each cartridge draws
	// independently and deterministically); 0 disables.
	MediaErrorPerRead float64
	// DriveOutages are scripted drive down intervals (reproducible
	// scenarios). A drive listed here ignores DriveMTBF.
	DriveOutages []DriveOutage
	// RobotOutages are scripted robot down intervals. A robot listed here
	// ignores RobotMTBF.
	RobotOutages []RobotOutage
	// MediaFaults are scripted per-read media errors, applied on top of
	// MediaErrorPerRead.
	MediaFaults []MediaFault
}

// Enabled reports whether the profile can inject any fault at all.
func (p *Profile) Enabled() bool {
	return p.DriveMTBF > 0 || p.RobotMTBF > 0 || p.MediaErrorPerRead > 0 ||
		len(p.DriveOutages) > 0 || len(p.RobotOutages) > 0 || len(p.MediaFaults) > 0
}

// Validate checks profile sanity independent of any hardware geometry
// (index bounds are checked against the geometry by New).
func (p *Profile) Validate() error {
	switch {
	case p.DriveMTBF < 0 || math.IsNaN(p.DriveMTBF):
		return fmt.Errorf("faults: DriveMTBF must be >= 0, got %v", p.DriveMTBF)
	case p.RobotMTBF < 0 || math.IsNaN(p.RobotMTBF):
		return fmt.Errorf("faults: RobotMTBF must be >= 0, got %v", p.RobotMTBF)
	case p.MediaErrorPerRead < 0 || p.MediaErrorPerRead > 1 || math.IsNaN(p.MediaErrorPerRead):
		return fmt.Errorf("faults: MediaErrorPerRead must be in [0,1], got %v", p.MediaErrorPerRead)
	}
	if err := checkRepairMean("DriveRepair", p.DriveRepair); err != nil {
		return err
	}
	if err := checkRepairMean("RobotRepair", p.RobotRepair); err != nil {
		return err
	}
	for i, o := range p.DriveOutages {
		if o.At < 0 || !(o.Duration > 0) {
			return fmt.Errorf("faults: DriveOutages[%d] needs At >= 0 and Duration > 0, got (%v, %v)", i, o.At, o.Duration)
		}
	}
	for i, o := range p.RobotOutages {
		if o.At < 0 || !(o.Duration > 0) {
			return fmt.Errorf("faults: RobotOutages[%d] needs At >= 0 and Duration > 0, got (%v, %v)", i, o.At, o.Duration)
		}
	}
	for i, m := range p.MediaFaults {
		if m.Read < 1 || !(m.Frac > 0) || m.Frac > 1 {
			return fmt.Errorf("faults: MediaFaults[%d] needs Read >= 1 and Frac in (0,1], got (%d, %v)", i, m.Read, m.Frac)
		}
	}
	return nil
}

// checkRepairMean rejects a repair sampler of a known distribution whose
// mean is not positive and finite. Negative repairs would move a device's
// timeline backwards, and timeline.advance would never catch up with the
// clock.
func checkRepairMean(field string, s Sampler) error {
	var mean float64
	switch d := s.(type) {
	case dist.Exponential:
		mean = d.Mean
	case *dist.BoundedPareto:
		mean = d.Mean()
	default:
		return nil
	}
	if !(mean > 0) || math.IsInf(mean, 0) {
		return fmt.Errorf("faults: %s mean must be positive and finite, got %v", field, mean)
	}
	return nil
}

// window is one down interval [at, until).
type window struct{ at, until float64 }

// timeline is one device's alternating up/down schedule, extended lazily as
// the simulation advances. A device is down during [failAt, repairAt) and
// up otherwise; advance moves the pair forward so queries with
// non-decreasing times are O(1) amortized.
type timeline struct {
	seed     uint64
	src      rng.Source
	mtbf     float64
	repair   Sampler
	script   []window // sorted, non-overlapping; non-nil overrides mtbf
	cursor   int
	failAt   float64
	repairAt float64
}

// reset rewinds the timeline to simulated time zero, replaying the same
// schedule (scripted windows, or the same seeded stochastic stream).
func (tl *timeline) reset() {
	tl.cursor = 0
	if tl.script != nil {
		tl.failAt, tl.repairAt = tl.script[0].at, tl.script[0].until
		return
	}
	if tl.mtbf <= 0 {
		tl.failAt = math.Inf(1)
		tl.repairAt = math.Inf(1)
		return
	}
	tl.src = *rng.New(tl.seed)
	tl.failAt = tl.mtbf * tl.src.ExpFloat64()
	tl.repairAt = tl.failAt + tl.repair.Sample(&tl.src)
}

// advance moves the current down interval forward until it ends after t.
func (tl *timeline) advance(t float64) {
	for tl.repairAt <= t {
		if tl.script != nil {
			tl.cursor++
			if tl.cursor >= len(tl.script) {
				tl.failAt = math.Inf(1)
				tl.repairAt = math.Inf(1)
				return
			}
			tl.failAt, tl.repairAt = tl.script[tl.cursor].at, tl.script[tl.cursor].until
			continue
		}
		tl.failAt = tl.repairAt + tl.mtbf*tl.src.ExpFloat64()
		tl.repairAt = tl.failAt + tl.repair.Sample(&tl.src)
	}
}

// mediaKey identifies one scripted per-read media fault.
type mediaKey struct{ lib, tape, read int }

// Injector evaluates a Profile against a concrete hardware geometry. The
// tape-system simulator owns one per System and consults it at operation
// boundaries; see the package comment for the determinism and concurrency
// contracts.
type Injector struct {
	prof         Profile
	drivesPerLib int
	drives       []timeline // indexed by global drive index lib*drivesPerLib+d
	robots       []timeline // indexed by library
	reads        [][]int32  // per-library per-cartridge read counts
	media        map[mediaKey]float64
	mediaSeed    uint64
}

// New builds an injector for the given geometry. The profile is validated,
// scripted outages are bounds-checked, sorted, and checked for overlap.
func New(p Profile, libraries, drivesPerLib, tapesPerLib int) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if libraries <= 0 || drivesPerLib <= 0 || tapesPerLib <= 0 {
		return nil, fmt.Errorf("faults: geometry must be positive, got %d libraries × %d drives × %d tapes",
			libraries, drivesPerLib, tapesPerLib)
	}
	in := &Injector{
		prof:         p,
		drivesPerLib: drivesPerLib,
		drives:       make([]timeline, libraries*drivesPerLib),
		robots:       make([]timeline, libraries),
		reads:        make([][]int32, libraries),
	}
	for lib := range in.reads {
		in.reads[lib] = make([]int32, tapesPerLib)
	}
	driveRepair := p.DriveRepair
	if driveRepair == nil {
		driveRepair = dist.Exponential{Mean: DefaultDriveRepairMean}
	}
	robotRepair := p.RobotRepair
	if robotRepair == nil {
		robotRepair = dist.Exponential{Mean: DefaultRobotRepairMean}
	}
	// Device streams are seeded from one master stream in fixed device
	// order, so a device's schedule depends only on (Seed, device).
	master := rng.New(p.Seed)
	for g := range in.drives {
		in.drives[g] = timeline{seed: master.Uint64(), mtbf: p.DriveMTBF, repair: driveRepair}
	}
	for lib := range in.robots {
		in.robots[lib] = timeline{seed: master.Uint64(), mtbf: p.RobotMTBF, repair: robotRepair}
	}
	in.mediaSeed = master.Uint64()
	for _, o := range p.DriveOutages {
		if o.Library < 0 || o.Library >= libraries || o.Drive < 0 || o.Drive >= drivesPerLib {
			return nil, fmt.Errorf("faults: scripted outage names drive L%d.D%d outside the %d×%d geometry",
				o.Library, o.Drive, libraries, drivesPerLib)
		}
		tl := &in.drives[o.Library*drivesPerLib+o.Drive]
		tl.script = append(tl.script, window{at: o.At, until: o.At + o.Duration})
	}
	for _, o := range p.RobotOutages {
		if o.Library < 0 || o.Library >= libraries {
			return nil, fmt.Errorf("faults: scripted outage names robot %d outside %d libraries", o.Library, libraries)
		}
		tl := &in.robots[o.Library]
		tl.script = append(tl.script, window{at: o.At, until: o.At + o.Duration})
	}
	for g := range in.drives {
		if err := sortScript(in.drives[g].script); err != nil {
			return nil, fmt.Errorf("faults: drive L%d.D%d: %w", g/drivesPerLib, g%drivesPerLib, err)
		}
	}
	for lib := range in.robots {
		if err := sortScript(in.robots[lib].script); err != nil {
			return nil, fmt.Errorf("faults: robot %d: %w", lib, err)
		}
	}
	if len(p.MediaFaults) > 0 {
		in.media = make(map[mediaKey]float64, len(p.MediaFaults))
		for _, m := range p.MediaFaults {
			if m.Library < 0 || m.Library >= libraries || m.Tape < 0 || m.Tape >= tapesPerLib {
				return nil, fmt.Errorf("faults: scripted media fault names tape L%d.T%d outside the %d×%d geometry",
					m.Library, m.Tape, libraries, tapesPerLib)
			}
			in.media[mediaKey{m.Library, m.Tape, m.Read}] = m.Frac
		}
	}
	in.Reset()
	return in, nil
}

// sortScript orders one device's scripted windows and rejects overlap.
func sortScript(ws []window) error {
	if len(ws) == 0 {
		return nil
	}
	// Windows may share a start time (the overlap check below rejects any
	// such pair with positive duration), so break ties on until to keep the
	// unstable sort deterministic.
	slices.SortFunc(ws, func(a, b window) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return cmp.Compare(a.until, b.until)
	})
	for i := 1; i < len(ws); i++ {
		if ws[i].at < ws[i-1].until {
			return fmt.Errorf("scripted outages overlap at t=%v", ws[i].at)
		}
	}
	return nil
}

// Reset rewinds every timeline and read counter to simulated time zero.
// The same schedules replay — tapesys.System.Reset calls this so repeated
// seed runs on one system see identical fault timelines.
func (in *Injector) Reset() {
	for g := range in.drives {
		in.drives[g].reset()
	}
	for lib := range in.robots {
		in.robots[lib].reset()
	}
	for lib := range in.reads {
		clear(in.reads[lib])
	}
}

// DriveDown reports whether global drive g (lib·drivesPerLib+drive) is down
// at time t, and if so when it returns to service. Per-device query times
// must be non-decreasing.
func (in *Injector) DriveDown(g int, t float64) (down bool, repairAt float64) {
	tl := &in.drives[g]
	tl.advance(t)
	if t >= tl.failAt {
		return true, tl.repairAt
	}
	return false, 0
}

// NextDriveFailure returns the start of drive g's current or next down
// interval at or after the current position — callers compare it against
// an operation's end time to decide whether the op is interrupted. Returns
// +Inf when the drive never fails again. Per-device query times must be
// non-decreasing.
func (in *Injector) NextDriveFailure(g int, t float64) float64 {
	tl := &in.drives[g]
	tl.advance(t)
	return tl.failAt
}

// RobotDown reports whether library lib's robot arm is down at time t, and
// if so when it returns to service. Per-device query times must be
// non-decreasing.
func (in *Injector) RobotDown(lib int, t float64) (down bool, repairAt float64) {
	tl := &in.robots[lib]
	tl.advance(t)
	if t >= tl.failAt {
		return true, tl.repairAt
	}
	return false, 0
}

// MediaRead draws the outcome of the next read of cartridge (lib, tape):
// whether this read hits a permanent media error and, if so, the fraction
// of the service span after which it surfaces. Each call consumes one read
// ordinal; the draw depends only on (Seed, lib, tape, ordinal).
func (in *Injector) MediaRead(lib, tape int) (failed bool, frac float64) {
	n := in.reads[lib][tape] + 1
	in.reads[lib][tape] = n
	if f, ok := in.media[mediaKey{lib, tape, int(n)}]; ok {
		return true, f
	}
	if in.prof.MediaErrorPerRead <= 0 {
		return false, 0
	}
	src := *rng.New(in.mediaSeed ^ mix3(lib, tape, int(n)))
	if src.Float64() >= in.prof.MediaErrorPerRead {
		return false, 0
	}
	// Surface the error somewhere inside the span, away from the edges.
	return true, 0.05 + 0.9*src.Float64()
}

// mix3 combines three small non-negative integers into a well-spread 64-bit
// hash (distinct odd multipliers per coordinate, SplitMix64-style).
func mix3(a, b, c int) uint64 {
	h := (uint64(a) + 1) * 0x9E3779B97F4A7C15
	h ^= (uint64(b) + 1) * 0xC2B2AE3D27D4EB4F
	h ^= (uint64(c) + 1) * 0x165667B19E3779F9
	return h
}
