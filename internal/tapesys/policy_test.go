package tapesys

import (
	"testing"

	"paralleltape/internal/catalog"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/tape"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

func TestPolicyStrings(t *testing.T) {
	if LargestFirst.String() != "largest-first" ||
		SmallestFirst.String() != "smallest-first" ||
		SlotOrder.String() != "slot-order" {
		t.Error("pending order names wrong")
	}
	if PendingOrder(9).String() == "" {
		t.Error("unknown pending order empty")
	}
	if LeastPopular.String() != "least-popular" ||
		MostPopular.String() != "most-popular" ||
		DriveOrder.String() != "drive-order" {
		t.Error("victim policy names wrong")
	}
	if VictimPolicy(9).String() == "" {
		t.Error("unknown victim policy empty")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options invalid: %v", err)
	}
	if err := (Options{Pending: PendingOrder(9)}).Validate(); err == nil {
		t.Error("bad pending order accepted")
	}
	if err := (Options{Victim: VictimPolicy(9)}).Validate(); err == nil {
		t.Error("bad victim policy accepted")
	}
}

func TestNewWithOptionsRejectsBad(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 1,
		map[tape.Key][]objSpec{{Library: 0, Index: 0}: {{0, 100}}}, nil, nil, nil)
	for _, opts := range []Options{
		{Pending: PendingOrder(7)},
		{Shards: -1},
	} {
		if _, err := NewWithOptions(hw, pl, opts); err == nil {
			t.Errorf("invalid options %+v accepted", opts)
		}
	}
}

func TestSortPendingOrders(t *testing.T) {
	mk := func() []catalog.TapeGroup {
		return []catalog.TapeGroup{
			{Tape: tape.Key{Index: 3}, Bytes: 50},
			{Tape: tape.Key{Index: 1}, Bytes: 200},
			{Tape: tape.Key{Index: 2}, Bytes: 100},
		}
	}
	p := mk()
	sortPending(p, LargestFirst)
	if p[0].Bytes != 200 || p[2].Bytes != 50 {
		t.Errorf("LargestFirst: %+v", p)
	}
	p = mk()
	sortPending(p, SmallestFirst)
	if p[0].Bytes != 50 || p[2].Bytes != 200 {
		t.Errorf("SmallestFirst: %+v", p)
	}
	p = mk()
	sortPending(p, SlotOrder)
	if p[0].Tape.Index != 1 || p[2].Tape.Index != 3 {
		t.Errorf("SlotOrder: %+v", p)
	}
}

func TestMostPopularVictim(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 3,
		map[tape.Key][]objSpec{
			{Library: 0, Index: 0}: {{0, 100}},
			{Library: 0, Index: 1}: {{1, 100}},
			{Library: 0, Index: 3}: {{2, 100}},
		},
		[][]int{{0, 1}, {-1, -1}}, nil,
		map[tape.Key]float64{
			{Library: 0, Index: 0}: 0.2,
			{Library: 0, Index: 1}: 0.8, // hottest → evicted under MostPopular
		})
	s, err := NewWithOptions(hw, pl, Options{Victim: MostPopular})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req(0, 2)); err != nil {
		t.Fatal(err)
	}
	mounted := s.MountedTapes()
	if len(mounted[0]) != 2 || mounted[0][0] != 0 || mounted[0][1] != 3 {
		t.Errorf("mounted = %v, want [0 3] (tape 1 evicted)", mounted[0])
	}
}

func TestDriveOrderVictim(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 3,
		map[tape.Key][]objSpec{
			{Library: 0, Index: 0}: {{0, 100}},
			{Library: 0, Index: 1}: {{1, 100}},
			{Library: 0, Index: 3}: {{2, 100}},
		},
		[][]int{{0, 1}, {-1, -1}}, nil,
		map[tape.Key]float64{
			{Library: 0, Index: 0}: 0.9, // drive 0, hottest — still evicted first
			{Library: 0, Index: 1}: 0.1,
		})
	s, err := NewWithOptions(hw, pl, Options{Victim: DriveOrder})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req(0, 2)); err != nil {
		t.Fatal(err)
	}
	mounted := s.MountedTapes()
	if len(mounted[0]) != 2 || mounted[0][0] != 1 || mounted[0][1] != 3 {
		t.Errorf("mounted = %v, want [1 3] (drive 0 evicted)", mounted[0])
	}
}

func TestMostPopularStillPrefersEmptyDrives(t *testing.T) {
	hw := testHW()
	pl := manualPlacement(t, hw, 2,
		map[tape.Key][]objSpec{
			{Library: 0, Index: 0}: {{0, 100}},
			{Library: 0, Index: 3}: {{1, 100}},
		},
		[][]int{{0, -1}, {-1, -1}}, nil,
		map[tape.Key]float64{{Library: 0, Index: 0}: 0.9})
	s, err := NewWithOptions(hw, pl, Options{Victim: MostPopular})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req(0, 1)); err != nil {
		t.Fatal(err)
	}
	// Tape 0 must still be mounted: the empty drive took the switch.
	mounted := s.MountedTapes()
	if len(mounted[0]) != 2 || mounted[0][0] != 0 {
		t.Errorf("mounted = %v, want tape 0 kept", mounted[0])
	}
}

func TestLargestFirstBeatsSmallestFirstOnParallelDrives(t *testing.T) {
	// Two empty drives, one robot. The robot serializes the two fetches,
	// so the first-queued tape starts transferring ~2 s earlier. Putting
	// the big transfer first (LPT) hides the stagger:
	//   LargestFirst:  big ready at 5 → done 55; small ready 7 → done 17.
	//   SmallestFirst: small ready 5 → done 15; big ready 7 → done 57.
	pl := func() *placement.Result {
		return manualPlacement(t, testHW(), 2,
			map[tape.Key][]objSpec{
				{Library: 0, Index: 2}: {{0, 500}},
				{Library: 0, Index: 3}: {{1, 100}},
			},
			nil, nil, nil)
	}
	lpt, err := New(testHW(), pl())
	if err != nil {
		t.Fatal(err)
	}
	mLPT, err := lpt.Submit(req(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	spt, err := NewWithOptions(testHW(), pl(), Options{Pending: SmallestFirst})
	if err != nil {
		t.Fatal(err)
	}
	mSPT, err := spt.Submit(req(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if mLPT.Response != 55 {
		t.Errorf("LargestFirst response = %v, want 55", mLPT.Response)
	}
	if mSPT.Response != 57 {
		t.Errorf("SmallestFirst response = %v, want 57", mSPT.Response)
	}
}

func TestPolicyMatrixEndToEnd(t *testing.T) {
	// Every policy combination completes a realistic session and the
	// default (LPT + least-popular) is not beaten badly by any variant.
	hw := tape.DefaultHardware()
	hw.Libraries = 2
	hw.DrivesPerLib = 3
	hw.TapesPerLib = 20
	hw.Capacity = 100 * units.MB
	p := workload.Params{
		NumObjects:  600,
		NumRequests: 30,
		MinObjSize:  1 * units.MB,
		MaxObjSize:  4 * units.MB,
		ObjShape:    1.1,
		MinReqLen:   10,
		MaxReqLen:   20,
		ReqLenShape: 1,
		Alpha:       0.3,
	}
	w, err := workload.Generate(p, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	pb := placement.ParallelBatch{M: 1}
	pr, err := pb.Place(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	responses := map[string]float64{}
	for _, po := range []PendingOrder{LargestFirst, SmallestFirst, SlotOrder} {
		for _, vp := range []VictimPolicy{LeastPopular, MostPopular, DriveOrder} {
			sys, err := NewWithOptions(hw, pr, Options{Pending: po, Victim: vp})
			if err != nil {
				t.Fatal(err)
			}
			stream, err := workload.NewRequestStream(w, rng.New(4))
			if err != nil {
				t.Fatal(err)
			}
			total := 0.0
			for i := 0; i < 40; i++ {
				m, err := sys.Submit(stream.Next())
				if err != nil {
					t.Fatalf("%v/%v: %v", po, vp, err)
				}
				total += m.Response
			}
			responses[po.String()+"/"+vp.String()] = total / 40
		}
	}
	def := responses["largest-first/least-popular"]
	for combo, resp := range responses {
		if def > resp*1.25 {
			t.Errorf("default policy (%.1fs) much worse than %s (%.1fs)", def, combo, resp)
		}
	}
}
