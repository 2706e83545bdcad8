package tape

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"paralleltape/internal/model"
	"paralleltape/internal/rng"
	"paralleltape/internal/units"
)

func TestDefaultHardwareMatchesTable1(t *testing.T) {
	h := DefaultHardware()
	if err := h.Validate(); err != nil {
		t.Fatalf("default hardware invalid: %v", err)
	}
	if h.CellToDrive != 7.6 || h.LoadThread != 19 || h.Unload != 19 {
		t.Errorf("robot/drive timings: %+v", h)
	}
	if h.TransferRate != 80e6 {
		t.Errorf("TransferRate = %v", h.TransferRate)
	}
	if h.MaxRewind != 98 || h.AvgFileSeek != 72 {
		t.Errorf("motion timings: %+v", h)
	}
	if h.Capacity != 400*units.GB || h.TapesPerLib != 80 || h.DrivesPerLib != 8 || h.Libraries != 3 {
		t.Errorf("geometry: %+v", h)
	}
}

func TestHardwareTotals(t *testing.T) {
	h := DefaultHardware()
	if h.TotalTapes() != 240 {
		t.Errorf("TotalTapes = %d", h.TotalTapes())
	}
	if h.TotalDrives() != 24 {
		t.Errorf("TotalDrives = %d", h.TotalDrives())
	}
	if h.TotalCapacity() != 96*units.TB {
		t.Errorf("TotalCapacity = %d", h.TotalCapacity())
	}
}

func TestHardwareValidateRejections(t *testing.T) {
	mutations := map[string]func(*Hardware){
		"negative robot": func(h *Hardware) { h.CellToDrive = -1 },
		"zero rewind":    func(h *Hardware) { h.MaxRewind = 0 },
		"zero seek":      func(h *Hardware) { h.AvgFileSeek = 0 },
		"zero rate":      func(h *Hardware) { h.TransferRate = 0 },
		"zero capacity":  func(h *Hardware) { h.Capacity = 0 },
		"zero tapes":     func(h *Hardware) { h.TapesPerLib = 0 },
		"zero drives":    func(h *Hardware) { h.DrivesPerLib = 0 },
		"drives > tapes": func(h *Hardware) { h.DrivesPerLib = h.TapesPerLib + 1 },
		"zero libraries": func(h *Hardware) { h.Libraries = 0 },
	}
	for name, mutate := range mutations {
		h := DefaultHardware()
		mutate(&h)
		if err := h.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

// TestHardwareValidateIndexWidth checks the geometry bounds the trace
// imposes: indices fit int32 and the global drive index fits the 31 bits
// a span ID gives it. It only calls Validate; a system this large would
// allocate every drive.
func TestHardwareValidateIndexWidth(t *testing.T) {
	cases := []struct {
		name                string
		libs, drives, tapes int
		wantErr             string
	}{
		{"libraries above int32", math.MaxInt32 + 1, 1, 80, "fit in int32"},
		{"drives above int32", 1, math.MaxInt32 + 1, math.MaxInt32 + 1, "fit in int32"},
		{"tapes above int32", 3, 8, math.MaxInt32 + 1, "fit in int32"},
		{"2^31 drives", 2, 1 << 30, 1 << 30, "2^31 drives"},
		{"2^31 drives, one per library", 1 << 31, 1, 80, "fit in int32"},
		{"2^31-1 drives", 1, math.MaxInt32, math.MaxInt32, ""},
		{"int32 libraries of one drive", math.MaxInt32, 1, math.MaxInt32, ""},
	}
	for _, c := range cases {
		h := DefaultHardware()
		h.Libraries, h.DrivesPerLib, h.TapesPerLib = c.libs, c.drives, c.tapes
		err := h.Validate()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: Validate = %v, want nil", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: Validate = %v, want an error containing %q", c.name, err, c.wantErr)
		}
	}
}

func TestMotionModelCalibration(t *testing.T) {
	h := DefaultHardware()
	// Full-tape rewind takes exactly MaxRewind.
	if got := h.RewindTime(h.Capacity); math.Abs(got-98) > 1e-9 {
		t.Errorf("full rewind = %v, want 98", got)
	}
	// Half-tape rewind is the Table 1 average 49 s.
	if got := h.RewindTime(h.Capacity / 2); math.Abs(got-49) > 1e-9 {
		t.Errorf("half rewind = %v, want 49", got)
	}
	// Locate to a half-tape-away file takes the Table 1 average 72 s.
	if got := h.SeekTime(0, h.Capacity/2); math.Abs(got-72) > 1e-9 {
		t.Errorf("half-tape seek = %v, want 72", got)
	}
	// Seek is symmetric.
	if f, b := h.SeekTime(0, 1e9), h.SeekTime(1e9, 0); f != b {
		t.Errorf("seek asymmetric: %v vs %v", f, b)
	}
	// Transfer of 80 MB takes 1 s.
	if got := h.TransferTime(80 * units.MB); math.Abs(got-1) > 1e-9 {
		t.Errorf("80 MB transfer = %v, want 1s", got)
	}
	if h.TransferTime(-5) != 0 {
		t.Error("negative size transfer should be 0")
	}
	if h.RewindTime(-5) != 0 {
		t.Error("negative position rewind should be 0")
	}
}

func TestSwitchCost(t *testing.T) {
	h := DefaultHardware()
	// unload 19 + 2*7.6 robot + 19 load/thread = 53.2
	if got := h.SwitchCost(); math.Abs(got-53.2) > 1e-9 {
		t.Errorf("SwitchCost = %v, want 53.2", got)
	}
	if got := h.AverageSwitchTime(); math.Abs(got-(49+53.2)) > 1e-9 {
		t.Errorf("AverageSwitchTime = %v, want 102.2", got)
	}
}

func TestLayoutAppendAndFind(t *testing.T) {
	h := DefaultHardware()
	l := NewLayout(Key{Library: 1, Index: 5})
	e1, err := l.Append(10, 1000, h.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Start != 0 || e1.Size != 1000 || e1.End() != 1000 {
		t.Errorf("first extent: %+v", e1)
	}
	e2, err := l.Append(20, 500, h.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Start != 1000 {
		t.Errorf("second extent start = %d", e2.Start)
	}
	if l.Used() != 1500 || l.Len() != 2 {
		t.Errorf("Used=%d Len=%d", l.Used(), l.Len())
	}
	got, ok := l.Find(20)
	if !ok || got != e2 {
		t.Errorf("Find(20) = %+v, %v", got, ok)
	}
	if _, ok := l.Find(99); ok {
		t.Error("Find(99) found a missing object")
	}
	if err := l.Validate(h.Capacity); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if l.Key() != (Key{Library: 1, Index: 5}) {
		t.Errorf("Key = %v", l.Key())
	}
}

func TestLayoutCapacityEnforced(t *testing.T) {
	l := NewLayout(Key{})
	if _, err := l.Append(1, 300, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(2, 800, 1000); err == nil {
		t.Error("overfull append accepted")
	}
	// Failed append must not corrupt state.
	if l.Used() != 300 || l.Len() != 1 {
		t.Errorf("state after failed append: Used=%d Len=%d", l.Used(), l.Len())
	}
	if _, err := l.Append(3, 700, 1000); err != nil {
		t.Errorf("exact-fit append rejected: %v", err)
	}
}

func TestLayoutAppendRejectsBadSize(t *testing.T) {
	l := NewLayout(Key{})
	if _, err := l.Append(1, 0, 100); err == nil {
		t.Error("zero-size append accepted")
	}
	if _, err := l.Append(1, -10, 100); err == nil {
		t.Error("negative-size append accepted")
	}
}

func TestKeyString(t *testing.T) {
	if got := (Key{Library: 2, Index: 17}).String(); got != "L2.T17" {
		t.Errorf("Key.String = %q", got)
	}
}

func TestPlanReadsEmpty(t *testing.T) {
	h := DefaultHardware()
	p := PlanReads(h, 123, nil)
	if p.SeekTotal != 0 || p.XferTotal != 0 || p.EndPos != 123 || len(p.Order) != 0 {
		t.Errorf("empty plan: %+v", p)
	}
}

func TestPlanReadsSingle(t *testing.T) {
	h := DefaultHardware()
	e := Extent{Object: 1, Start: 1e9, Size: 8e8}
	p := PlanReads(h, 0, []Extent{e})
	if len(p.Order) != 1 || p.Order[0] != e {
		t.Fatalf("order: %+v", p.Order)
	}
	wantSeek := h.SeekTime(0, 1e9)
	if math.Abs(p.SeekTotal-wantSeek) > 1e-9 {
		t.Errorf("seek = %v, want %v", p.SeekTotal, wantSeek)
	}
	wantXfer := h.TransferTime(8e8)
	if math.Abs(p.XferTotal-wantXfer) > 1e-9 {
		t.Errorf("xfer = %v, want %v", p.XferTotal, wantXfer)
	}
	if p.EndPos != e.End() {
		t.Errorf("EndPos = %d, want %d", p.EndPos, e.End())
	}
}

func TestPlanReadsAscendingWhenHeadAtBOT(t *testing.T) {
	h := DefaultHardware()
	exts := []Extent{
		{Object: 3, Start: 3e9, Size: 1e8},
		{Object: 1, Start: 1e9, Size: 1e8},
		{Object: 2, Start: 2e9, Size: 1e8},
	}
	p := PlanReads(h, 0, exts)
	for i := 1; i < len(p.Order); i++ {
		if p.Order[i].Start < p.Order[i-1].Start {
			t.Fatalf("head at BOT should sweep forward: %+v", p.Order)
		}
	}
}

func TestPlanReadsPicksCheaperSweep(t *testing.T) {
	h := DefaultHardware()
	// Head in the middle; one extent slightly left, one far right. Optimal:
	// grab the near-left extent first, then the right one (sweep-left-first).
	left := Extent{Object: 1, Start: 10e9 - 2e8, Size: 1e8}
	right := Extent{Object: 2, Start: 30e9, Size: 1e8}
	p := PlanReads(h, 10e9, []Extent{left, right})
	if p.Order[0].Object != 1 {
		t.Errorf("expected near-left extent first, got %+v", p.Order)
	}
	// And the total seek must not exceed the naive ascending order's cost.
	naive := h.SeekTime(10e9, left.Start) + h.SeekTime(left.End(), right.Start)
	if p.SeekTotal > naive+1e-9 {
		t.Errorf("plan seek %v worse than naive %v", p.SeekTotal, naive)
	}
}

func TestPlanReadsServesAllExactlyOnce(t *testing.T) {
	h := DefaultHardware()
	src := rng.New(5)
	f := func(startRaw uint32, sizes []uint8) bool {
		var exts []Extent
		pos := int64(0)
		for i, s := range sizes {
			size := int64(s)%100 + 1
			gap := int64(i%7) * 1e6
			exts = append(exts, Extent{Object: model.ObjectID(i), Start: pos + gap, Size: size * 1e6})
			pos += gap + size*1e6
		}
		start := int64(startRaw) % (pos + 1)
		// Shuffle input order; plan must not depend on it.
		src.Shuffle(len(exts), func(i, j int) { exts[i], exts[j] = exts[j], exts[i] })
		p := PlanReads(h, start, exts)
		if len(p.Order) != len(exts) {
			return false
		}
		seen := map[model.ObjectID]bool{}
		for _, e := range p.Order {
			if seen[e.Object] {
				return false
			}
			seen[e.Object] = true
		}
		return len(seen) == len(exts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPlanReadsSeekNeverWorseThanSortedOrder(t *testing.T) {
	h := DefaultHardware()
	f := func(startRaw uint32, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var exts []Extent
		pos := int64(0)
		for i, r := range raw {
			size := int64(r)%1000 + 1
			exts = append(exts, Extent{Object: model.ObjectID(i), Start: pos, Size: size * 1e6})
			pos += size * 1e6
		}
		start := int64(startRaw) % (pos + 1)
		p := PlanReads(h, start, exts)
		// Cost of naive ascending-start order.
		sorted := make([]Extent, len(exts))
		copy(sorted, exts)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
		cur := start
		naive := 0.0
		for _, e := range sorted {
			naive += h.SeekTime(cur, e.Start)
			cur = e.End()
		}
		return p.SeekTotal <= naive+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	l := NewLayout(Key{})
	l.extents = []Extent{{Object: 1, Start: 0, Size: 100}, {Object: 2, Start: 50, Size: 100}}
	l.used = 150
	if err := l.Validate(1000); err == nil {
		t.Error("overlapping extents accepted")
	}
	l2 := NewLayout(Key{})
	l2.extents = []Extent{{Object: 1, Start: 0, Size: 100}, {Object: 1, Start: 100, Size: 100}}
	l2.used = 200
	if err := l2.Validate(1000); err == nil {
		t.Error("duplicate object accepted")
	}
	l3 := NewLayout(Key{})
	l3.extents = []Extent{{Object: 1, Start: 0, Size: 100}}
	l3.used = 999
	if err := l3.Validate(1000); err == nil {
		t.Error("bookkeeping mismatch accepted")
	}
}
