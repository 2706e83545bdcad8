package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans nest: a
// span's parent is the span open when it began. Req is the simulated
// request the call served, -1 for calls outside a request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records the benchmark's own spans in memory. It is used from one
// goroutine; the program's internals are not instrumented.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string, req int64) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(time.Since(t.origin))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// seconds returns the duration of span id in seconds.
func (t *tracer) seconds(id int) float64 {
	return float64(t.spans[id].End-t.spans[id].Start) / 1e9
}

// add records a finished span from start to end (offsets from the
// tracer's origin) under the innermost open span, for intervals that are
// not one call, such as the gap between two completions.
func (t *tracer) add(name string, req int64, start, end time.Duration) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Req: req,
		Start: int64(start), End: int64(end)})
}

// timed runs fn inside a span and returns its error.
func (t *tracer) timed(name string, fn func() error) error {
	id := t.begin(name, -1)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns, per span name, the summed self time in seconds and
// the number of spans: a span's duration minus the part its direct
// children cover. Children run inside their parent on the same goroutine,
// so they cover disjoint parts of it.
func (t *tracer) selfTimes() (self map[string]float64, count map[string]int) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self = make(map[string]float64)
	count = make(map[string]int)
	for i, s := range t.spans {
		self[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
		count[s.Name]++
	}
	return self, count
}

// total returns the summed duration in seconds of the spans named name.
func (t *tracer) total(name string) float64 {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return float64(d) / 1e9
}

// write stores the spans as JSON lines in path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
