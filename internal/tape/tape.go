// Package tape models the physical substrate: tape cartridges, the linear
// head-positioning cost model of [Johnson & Miller, VLDB'98], and the
// drive/library timing constants of Table 1 (IBM LTO Gen 3 drives in
// StorageTek L80 libraries).
//
// Positions on a tape are byte offsets from the beginning of tape (BOT).
// The motion model is linear: positioning time is proportional to the
// distance between the head start and end positions; rewind is a (faster)
// linear motion back to BOT; transfer is streaming at the native rate once
// the head sits at the start of an object.
package tape

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"paralleltape/internal/model"
	"paralleltape/internal/units"
)

// Hardware collects the paper's Table 1 configuration plus the derived
// linear motion rates.
type Hardware struct {
	// Robot and drive mechanics (seconds).
	CellToDrive float64 // average robot move between a storage cell and a drive
	LoadThread  float64 // tape load + thread to ready
	Unload      float64 // drive unload/eject
	MaxRewind   float64 // full-tape rewind (98 s); average (half tape) is half of it
	AvgFileSeek float64 // average first-file access time after load (72 s)

	// Data path.
	TransferRate float64 // bytes/second native streaming rate

	// Library geometry.
	Capacity     int64 // bytes per cartridge
	TapesPerLib  int
	DrivesPerLib int
	Libraries    int
}

// DefaultHardware returns Table 1 exactly: LTO-3 drives (80 MB/s native,
// 400 GB cartridges) in L80 libraries (80 cartridges, 8 drives, one robot,
// 7.6 s average cell↔drive move), three libraries.
func DefaultHardware() Hardware {
	return Hardware{
		CellToDrive:  7.6,
		LoadThread:   19,
		Unload:       19,
		MaxRewind:    98,
		AvgFileSeek:  72,
		TransferRate: 80 * 1e6,
		Capacity:     400 * units.GB,
		TapesPerLib:  80,
		DrivesPerLib: 8,
		Libraries:    3,
	}
}

// Validate checks physical plausibility, and that every library, drive
// and tape index fits the simulator's trace events and span IDs.
func (h Hardware) Validate() error {
	switch {
	case h.CellToDrive < 0 || h.LoadThread < 0 || h.Unload < 0:
		return fmt.Errorf("tape: negative robot/drive timing")
	case h.MaxRewind <= 0:
		return fmt.Errorf("tape: MaxRewind must be positive, got %v", h.MaxRewind)
	case h.AvgFileSeek <= 0:
		return fmt.Errorf("tape: AvgFileSeek must be positive, got %v", h.AvgFileSeek)
	case h.TransferRate <= 0:
		return fmt.Errorf("tape: TransferRate must be positive, got %v", h.TransferRate)
	case h.Capacity <= 0:
		return fmt.Errorf("tape: Capacity must be positive, got %d", h.Capacity)
	case h.TapesPerLib <= 0:
		return fmt.Errorf("tape: TapesPerLib must be positive, got %d", h.TapesPerLib)
	case h.DrivesPerLib <= 0:
		return fmt.Errorf("tape: DrivesPerLib must be positive, got %d", h.DrivesPerLib)
	case h.DrivesPerLib > h.TapesPerLib:
		return fmt.Errorf("tape: more drives (%d) than tapes (%d); the paper assumes d << t",
			h.DrivesPerLib, h.TapesPerLib)
	case h.Libraries <= 0:
		return fmt.Errorf("tape: Libraries must be positive, got %d", h.Libraries)
	case h.Libraries > math.MaxInt32 || h.DrivesPerLib > math.MaxInt32 || h.TapesPerLib > math.MaxInt32:
		// Trace events carry library, drive and tape indices as int32.
		return fmt.Errorf("tape: Libraries %d, DrivesPerLib %d and TapesPerLib %d must each fit in int32",
			h.Libraries, h.DrivesPerLib, h.TapesPerLib)
	case int64(h.Libraries)*int64(h.DrivesPerLib) >= 1<<31:
		// A trace span ID holds the global drive index in 31 bits.
		return fmt.Errorf("tape: %d libraries of %d drives is 2^31 drives or more",
			h.Libraries, h.DrivesPerLib)
	}
	return nil
}

// RewindRate returns the rewind speed in bytes/second of tape travelled:
// a full cartridge rewinds in MaxRewind seconds.
func (h Hardware) RewindRate() float64 {
	return float64(h.Capacity) / h.MaxRewind
}

// LocateRate returns the forward/backward locate speed in bytes/second of
// tape travelled. Calibrated from the Table 1 "average file access time
// (first file)" figure: a random first file sits half a tape from BOT on
// average, so locate covers Capacity/2 bytes in AvgFileSeek seconds.
func (h Hardware) LocateRate() float64 {
	return float64(h.Capacity) / 2 / h.AvgFileSeek
}

// SeekTime returns the time to move the head between two byte positions
// (linear positioning model).
func (h Hardware) SeekTime(from, to int64) float64 {
	d := to - from
	if d < 0 {
		d = -d
	}
	return float64(d) / h.LocateRate()
}

// RewindTime returns the time to rewind the head from pos to BOT.
func (h Hardware) RewindTime(pos int64) float64 {
	if pos < 0 {
		pos = 0
	}
	return float64(pos) / h.RewindRate()
}

// TransferTime returns the streaming read time for size bytes.
func (h Hardware) TransferTime(size int64) float64 {
	if size < 0 {
		return 0
	}
	return float64(size) / h.TransferRate
}

// TotalTapes returns the cartridge count of the whole system.
func (h Hardware) TotalTapes() int { return h.TapesPerLib * h.Libraries }

// TotalDrives returns the drive count of the whole system.
func (h Hardware) TotalDrives() int { return h.DrivesPerLib * h.Libraries }

// TotalCapacity returns the raw byte capacity of the whole system.
func (h Hardware) TotalCapacity() int64 {
	return h.Capacity * int64(h.TotalTapes())
}

// Key identifies one cartridge in the system.
type Key struct {
	Library int // 0-based library index
	Index   int // 0-based cartridge index within the library
}

func (k Key) String() string { return fmt.Sprintf("L%d.T%d", k.Library, k.Index) }

// Extent is one object's run of bytes on a cartridge. Objects are written
// contiguously (§3 assumption 3: whole-object sequential access).
type Extent struct {
	Object model.ObjectID
	Start  int64 // byte offset of the first byte from BOT
	Size   int64
}

// End returns the offset one past the extent's last byte.
func (e Extent) End() int64 { return e.Start + e.Size }

// Layout is the ordered content of one cartridge, extents sorted by Start
// with no overlap. The zero value is an empty tape.
type Layout struct {
	key     Key
	extents []Extent
	used    int64
}

// NewLayout returns an empty layout for the cartridge k.
func NewLayout(k Key) *Layout { return &Layout{key: k} }

// NewLayoutWithCapacity returns an empty layout for the cartridge k sized
// for n appends, so callers that know the object count up front (the
// placement builder) avoid the append-growth reallocations.
func NewLayoutWithCapacity(k Key, n int) *Layout {
	return &Layout{key: k, extents: make([]Extent, 0, n)}
}

// Key returns the cartridge identity.
func (l *Layout) Key() Key { return l.key }

// Used returns the number of bytes written.
func (l *Layout) Used() int64 { return l.used }

// Len returns the number of objects on the tape.
func (l *Layout) Len() int { return len(l.extents) }

// Extents returns the extents in tape order. The returned slice is the
// layout's own storage; callers must not modify it.
func (l *Layout) Extents() []Extent { return l.extents }

// Append writes an object at the current end of tape and returns its
// extent. It fails if the object would not fit within capacity.
func (l *Layout) Append(id model.ObjectID, size int64, capacity int64) (Extent, error) {
	if size <= 0 {
		return Extent{}, fmt.Errorf("tape: appending object %d with non-positive size %d", id, size)
	}
	if l.used+size > capacity {
		return Extent{}, fmt.Errorf("tape: object %d (%s) does not fit on %s (%s of %s used)",
			id, units.FormatBytesSI(size), l.key,
			units.FormatBytesSI(l.used), units.FormatBytesSI(capacity))
	}
	e := Extent{Object: id, Start: l.used, Size: size}
	l.extents = append(l.extents, e)
	l.used += size
	return e, nil
}

// Find returns the extent of object id, if present.
func (l *Layout) Find(id model.ObjectID) (Extent, bool) {
	for _, e := range l.extents {
		if e.Object == id {
			return e, true
		}
	}
	return Extent{}, false
}

// Validate checks extent ordering, non-overlap, and capacity.
func (l *Layout) Validate(capacity int64) error {
	var pos int64
	seen := make(map[model.ObjectID]struct{}, len(l.extents))
	for i, e := range l.extents {
		if e.Size <= 0 {
			return fmt.Errorf("tape: %s extent %d has size %d", l.key, i, e.Size)
		}
		if e.Start < pos {
			return fmt.Errorf("tape: %s extent %d overlaps or is out of order", l.key, i)
		}
		if _, dup := seen[e.Object]; dup {
			return fmt.Errorf("tape: %s stores object %d twice", l.key, e.Object)
		}
		seen[e.Object] = struct{}{}
		pos = e.End()
	}
	if pos > capacity {
		return fmt.Errorf("tape: %s uses %d of %d bytes", l.key, pos, capacity)
	}
	if pos != l.used {
		return fmt.Errorf("tape: %s bookkeeping mismatch: used=%d, extents end at %d", l.key, l.used, pos)
	}
	return nil
}

// ReadPlan is a read schedule for a set of extents on one tape: the cheaper
// of PlanReads' two sweeps.
type ReadPlan struct {
	Order     []Extent // extents in service order
	SeekTotal float64  // seconds of head positioning
	XferTotal float64  // seconds of streaming transfer
	EndPos    int64    // head position after the last transfer
}

// PlanReads orders the given extents for reading from head position start.
// Reading an extent moves the head to its end. It evaluates two sweeps —
// the extents right of the head ascending and then the left ones
// ascending, or everything ascending from the leftmost extent — and keeps
// the cheaper.
//
// The result is the minimal-seek order when no extent lies left of the
// head, as on a fresh mount at BOT: both sweeps are then the plain
// ascending order. Otherwise it can seek more than the minimum. With the
// head at 100 and extents [0,1), [98,99) and [101,102), the two sweeps
// seek 200 and 199 bytes of tape, while the order 101 → 98 → 0 seeks 104.
//
// Transfers are accounted at the hardware streaming rate; the returned
// totals are what the simulator charges the drive.
func PlanReads(h Hardware, start int64, extents []Extent) ReadPlan {
	if len(extents) == 0 {
		return ReadPlan{EndPos: start}
	}
	sorted := make([]Extent, len(extents))
	copy(sorted, extents)
	// Starts are unique on one tape, so the unstable sort is deterministic.
	slices.SortFunc(sorted, func(a, b Extent) int { return cmp.Compare(a.Start, b.Start) })

	eval := func(order []Extent) ReadPlan {
		pos := start
		var seek, xfer float64
		for _, e := range order {
			seek += h.SeekTime(pos, e.Start)
			xfer += h.TransferTime(e.Size)
			pos = e.End()
		}
		return ReadPlan{Order: order, SeekTotal: seek, XferTotal: xfer, EndPos: pos}
	}

	// Split into extents left of the head and right of (or at) the head.
	// Reads always move the head forward (start → end), so within either
	// group ascending-start order is cheapest: any other order re-traverses
	// extents it has already read past. The only real choice is which side
	// to sweep first.
	var left, right []Extent
	for _, e := range sorted {
		if e.Start < start {
			left = append(left, e)
		} else {
			right = append(right, e)
		}
	}
	// Sweep A: serve the right side ascending, then jump back to the
	// leftmost unserved extent and ascend through the left side.
	orderA := make([]Extent, 0, len(sorted))
	orderA = append(orderA, right...)
	orderA = append(orderA, left...)
	// Sweep B: jump to the leftmost extent first and ascend through
	// everything (identical to plain ascending-start order).
	orderB := make([]Extent, 0, len(sorted))
	orderB = append(orderB, left...)
	orderB = append(orderB, right...)

	planA, planB := eval(orderA), eval(orderB)
	if planA.SeekTotal <= planB.SeekTotal {
		return planA
	}
	return planB
}

// Planner computes read-plan totals with reusable scratch. The simulator
// charges drives only the totals (seek seconds, transfer seconds, final
// head position), so Plan skips materializing the service order PlanReads
// returns — making the per-request hot path allocation-free once the
// scratch buffer has grown to the largest group seen. A Planner is not safe
// for concurrent use; the single-threaded simulation engine owns one.
type Planner struct {
	buf []Extent
}

// Plan returns the same SeekTotal/XferTotal/EndPos as PlanReads(h, start,
// extents) with Order left nil. The input slice is not modified.
func (p *Planner) Plan(h Hardware, start int64, extents []Extent) ReadPlan {
	return p.PlanRates(h.LocateRate(), h.TransferRate, start, extents)
}

// PlanRates is Plan with the two hardware-derived rates already in hand
// (locate must be Hardware.LocateRate and rate the transfer rate, so the
// result is bit-identical to Plan's). Per-event callers use it to avoid
// copying the whole Hardware struct per call.
func (p *Planner) PlanRates(locate, rate float64, start int64, extents []Extent) ReadPlan {
	if len(extents) == 0 {
		return ReadPlan{EndPos: start}
	}
	// The simulator hands Plan extent groups the catalog already ordered by
	// start, so check sortedness first: a sorted input is used in place —
	// Plan never mutates it — skipping both the scratch copy and the sort.
	sorted := extents
	for i := 1; i < len(extents); i++ {
		if extents[i].Start < extents[i-1].Start {
			p.buf = append(p.buf[:0], extents...)
			sorted = p.buf
			slices.SortFunc(sorted, func(a, b Extent) int {
				// Starts are unique on one cartridge, so the order is total.
				if a.Start < b.Start {
					return -1
				}
				if a.Start > b.Start {
					return 1
				}
				return 0
			})
			break
		}
	}
	// split is the first extent at or right of the head; see PlanReads for
	// the two-sweep argument.
	split := sort.Search(len(sorted), func(i int) bool { return sorted[i].Start >= start })
	planA := evalSweep(locate, rate, start, sorted[split:], sorted[:split]) // right side first
	planB := evalSweep(locate, rate, start, sorted[:split], sorted[split:]) // leftmost first
	if planA.SeekTotal <= planB.SeekTotal {
		return planA
	}
	return planB
}

// evalSweep accumulates the cost of serving seg1 then seg2 in order,
// mirroring PlanReads' eval loop exactly (same accumulation order and the
// same divisors — locate must be Hardware.LocateRate and rate the transfer
// rate — so the floating-point results are bit-identical). The rates come
// in as scalars: SeekTime and TransferTime are value methods on the
// many-field Hardware struct, and calling them per extent (or passing the
// struct per sweep) copies the whole struct on the simulator's hottest path.
func evalSweep(locate, rate float64, start int64, seg1, seg2 []Extent) ReadPlan {
	pos := start
	var seek, xfer float64
	for i := range seg1 {
		e := &seg1[i]
		d := e.Start - pos
		if d < 0 {
			d = -d
		}
		seek += float64(d) / locate
		if e.Size >= 0 {
			xfer += float64(e.Size) / rate
		}
		pos = e.End()
	}
	for i := range seg2 {
		e := &seg2[i]
		d := e.Start - pos
		if d < 0 {
			d = -d
		}
		seek += float64(d) / locate
		if e.Size >= 0 {
			xfer += float64(e.Size) / rate
		}
		pos = e.End()
	}
	return ReadPlan{SeekTotal: seek, XferTotal: xfer, EndPos: pos}
}

// SwitchCost returns the fixed (position-independent) portion of one tape
// switch: unload + robot stow + robot fetch + load/thread. The rewind
// portion depends on head position and is charged separately.
func (h Hardware) SwitchCost() float64 {
	return h.Unload + 2*h.CellToDrive + h.LoadThread
}

// AverageSwitchTime returns the paper-style expected full switch cost
// assuming an average (half-tape) rewind. Useful for back-of-envelope
// reporting, not used by the simulator itself.
func (h Hardware) AverageSwitchTime() float64 {
	return h.MaxRewind/2 + h.SwitchCost()
}

// MaxObjectSize returns the largest object this hardware can store.
func (h Hardware) MaxObjectSize() int64 { return h.Capacity }

// FormatSummary renders the hardware configuration as the Table 1 block.
func (h Hardware) FormatSummary() string {
	return fmt.Sprintf(
		"Average cell to drive time          %ss\n"+
			"Tape load and thread to ready       %ss\n"+
			"Data transfer rate, native          %s\n"+
			"Maximum/average rewind time         %s/%ss\n"+
			"Unload time                         %ss\n"+
			"Average file access time (1st file) %ss\n"+
			"Number of tapes per library         %d\n"+
			"Tape capacity                       %s\n"+
			"Tape drives per library             %d\n"+
			"Number of tape libraries            %d\n",
		trimFloat(h.CellToDrive), trimFloat(h.LoadThread), units.FormatRate(h.TransferRate),
		trimFloat(h.MaxRewind), trimFloat(h.MaxRewind/2), trimFloat(h.Unload),
		trimFloat(h.AvgFileSeek), h.TapesPerLib, units.FormatBytesSI(h.Capacity),
		h.DrivesPerLib, h.Libraries)
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.1f", v)
}
