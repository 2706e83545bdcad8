package tapesys

import (
	"errors"
	"fmt"
	"testing"

	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/tape"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

// streamTestWorkload builds a 4-library workload exercising mounted hits,
// switches, and robot contention across all libraries.
func streamTestWorkload(t *testing.T) (tape.Hardware, *model.Workload) {
	t.Helper()
	hw := tape.DefaultHardware()
	hw.Libraries = 4
	hw.DrivesPerLib = 3
	hw.TapesPerLib = 10
	hw.Capacity = 200 * units.MB
	p := workload.Params{
		NumObjects:  500,
		NumRequests: 40,
		MinObjSize:  1 * units.MB,
		MaxObjSize:  8 * units.MB,
		ObjShape:    1.1,
		MinReqLen:   6,
		MaxReqLen:   18,
		ReqLenShape: 1,
		Alpha:       0.3,
	}
	w, err := workload.Generate(p, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return hw, w
}

// streamTestSystem places the stream test workload and builds a system on
// it with the given options.
func streamTestSystem(t *testing.T, opts Options) (*System, *placement.Result, *model.Workload) {
	t.Helper()
	hw, w := streamTestWorkload(t)
	pr, err := placement.ParallelBatch{M: 2}.Place(w, hw)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewWithOptions(hw, pr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, pr, w
}

// submitLoop submits the first n requests of the fixed stream with a plain
// Submit loop.
func submitLoop(t *testing.T, s *System, w *model.Workload, n int) []RequestMetrics {
	t.Helper()
	stream, err := workload.NewRequestStream(w, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	var ms []RequestMetrics
	for i := 0; i < n; i++ {
		m, err := s.Submit(stream.Next())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		ms = append(ms, m)
	}
	return ms
}

// TestSubmitStreamMatchesSubmit pins the configuration older callers still
// use — any Options.Shards value, SubmitStream, Close — to a plain Submit
// loop on a default system: Shards is accepted and ignored, SubmitStream
// yields bit-identical per-request metrics and final clock, and Close is
// idempotent and leaves the system usable.
func TestSubmitStreamMatchesSubmit(t *testing.T) {
	const n = 60
	plain, _, w := streamTestSystem(t, Options{})
	base := submitLoop(t, plain, w, n)
	for _, shards := range []int{0, 1, 2, 4, 1000} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, pr, w := streamTestSystem(t, Options{Shards: shards})
			stream, err := workload.NewRequestStream(w, rng.New(23))
			if err != nil {
				t.Fatal(err)
			}
			var ms []RequestMetrics
			i := 0
			err = s.SubmitStream(
				func() *model.Request {
					if i >= n {
						return nil
					}
					i++
					return stream.Next()
				},
				func(m RequestMetrics) error {
					ms = append(ms, m)
					return nil
				},
			)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) != len(base) {
				t.Fatalf("stream returned %d metrics, want %d", len(ms), len(base))
			}
			for i := range ms {
				if ms[i] != base[i] {
					t.Fatalf("request %d metrics diverge:\n  submit %+v\n  stream %+v", i, base[i], ms[i])
				}
			}
			if s.Now() != plain.Now() {
				t.Fatalf("final clock %v, want %v", s.Now(), plain.Now())
			}
			for k := 0; k < 2; k++ {
				if err := s.Close(); err != nil {
					t.Fatalf("Close #%d: %v", k+1, err)
				}
			}
			if err := s.Reset(pr); err != nil {
				t.Fatal(err)
			}
			for i, m := range submitLoop(t, s, w, 10) {
				if m != base[i] {
					t.Fatalf("request %d diverges after Close:\n  want %+v\n  got  %+v", i, base[i], m)
				}
			}
		})
	}
}

// TestSubmitStreamEmpty checks an immediately-exhausted stream is a no-op.
func TestSubmitStreamEmpty(t *testing.T) {
	s, _, _ := streamTestSystem(t, Options{})
	if err := s.SubmitStream(func() *model.Request { return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 0 {
		t.Fatalf("clock advanced to %v on an empty stream", s.Now())
	}
}

// TestSubmitStreamErrors checks both error routes: a bad request surfaces
// its grouping error in submission order, and a callback error stops the
// stream; afterwards the system keeps working.
func TestSubmitStreamErrors(t *testing.T) {
	s, _, w := streamTestSystem(t, Options{})
	stream, err := workload.NewRequestStream(w, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}

	// Route 1: request 2 of the stream asks for an object the placement
	// has never seen; requests 0 and 1 must still deliver metrics first.
	bad := &model.Request{ID: 999, Objects: []model.ObjectID{1 << 30}}
	i, delivered := 0, 0
	err = s.SubmitStream(
		func() *model.Request {
			defer func() { i++ }()
			switch i {
			case 2:
				return bad
			case 3, 4:
				return stream.Next() // behind the failure, never runs
			}
			if i > 4 {
				return nil
			}
			return stream.Next()
		},
		func(m RequestMetrics) error { delivered++; return nil },
	)
	if err == nil {
		t.Fatal("bad request did not surface an error")
	}
	if delivered != 2 {
		t.Fatalf("delivered %d metrics before the failure, want 2", delivered)
	}

	// Route 2: the callback aborts the stream.
	stop := errors.New("enough")
	err = s.SubmitStream(
		func() *model.Request { return stream.Next() },
		func(m RequestMetrics) error { return stop },
	)
	if !errors.Is(err, stop) {
		t.Fatalf("callback error = %v, want %v", err, stop)
	}

	// The system stays usable after both failures.
	if _, err := s.Submit(stream.Next()); err != nil {
		t.Fatal(err)
	}
}
