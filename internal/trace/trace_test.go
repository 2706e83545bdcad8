package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

func sampleEvents() []Event {
	return []Event{
		{T: 0, Kind: KindSubmit, Lib: -1, Drive: -1, Tape: -1, Req: 7, Bytes: 300},
		{T: 1.5, Kind: KindSeek, Lib: 0, Drive: 1, Tape: 3, Req: 7, Span: 4294967297, Dur: 2.25},
		{T: 3.75, Kind: KindResourceWait, Lib: -1, Drive: -1, Tape: -1, Req: -1, Queue: 2, Name: "robot-0"},
		{T: 9, Kind: KindComplete, Lib: -1, Drive: -1, Tape: -1, Req: 7, Bytes: 300, Dur: 9},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
	// Every line is valid JSON with the documented keys.
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if first["kind"] != "submit" || first["req"] != float64(7) || first["bytes"] != float64(300) {
		t.Errorf("line 0 fields: %v", first)
	}
	if _, has := first["lib"]; has {
		t.Error("lib=-1 should be omitted")
	}
	var wait map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &wait); err != nil {
		t.Fatal(err)
	}
	if wait["name"] != "robot-0" || wait["queue"] != float64(2) {
		t.Errorf("wait fields: %v", wait)
	}
	if _, has := wait["req"]; has {
		t.Error("req=-1 should be omitted")
	}
}

func TestJSONLDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("JSONL output not byte-stable")
	}
}

func TestCSVShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want header + 4", len(lines))
	}
	if lines[0] != strings.Join(CSVColumns, ",") {
		t.Errorf("header = %q", lines[0])
	}
	for i, line := range lines {
		if got := strings.Count(line, ","); got != len(CSVColumns)-1 {
			t.Errorf("line %d has %d commas: %q", i, got, line)
		}
	}
	if lines[1] != "0,submit,,,,7,,300,,," {
		t.Errorf("submit row = %q", lines[1])
	}
	if lines[2] != "1.5,seek,0,1,3,7,4294967297,,2.25,," {
		t.Errorf("seek row = %q", lines[2])
	}
	if lines[3] != "3.75,resource-wait,,,,,,,,2,robot-0" {
		t.Errorf("wait row = %q", lines[3])
	}
}

func TestParseJSONLRoundTrip(t *testing.T) {
	want := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: parsed %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseJSONLBadLine(t *testing.T) {
	_, err := ParseJSONL(strings.NewReader("{\"t\":0,\"kind\":\"submit\"}\nnot-json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse failure", err)
	}
}

func TestKindsComplete(t *testing.T) {
	ks := Kinds()
	seen := map[Kind]bool{}
	for _, k := range ks {
		if seen[k] {
			t.Errorf("Kinds lists %q twice", k)
		}
		seen[k] = true
	}
	if len(ks) != 21 {
		t.Errorf("Kinds lists %d kinds, want 21 (update the list and this pin together)", len(ks))
	}
}

func TestBufferLimit(t *testing.T) {
	b := NewBuffer(2)
	for _, ev := range sampleEvents() {
		b.Record(ev)
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2", b.Len())
	}
	b.Reset()
	if b.Len() != 0 {
		t.Errorf("Len after Reset = %d", b.Len())
	}
	b.Record(Event{Kind: KindSubmit})
	if b.Len() != 1 {
		t.Errorf("Len after re-record = %d", b.Len())
	}
}

// TestSinkRecordDoesNotAllocate pins that the streaming sinks encode into
// a buffer they own: once the header is out and the line buffer has grown,
// recording an event allocates nothing.
func TestSinkRecordDoesNotAllocate(t *testing.T) {
	sinks := map[string]Recorder{
		"jsonl": NewJSONLWriter(io.Discard),
		"csv":   NewCSVWriter(io.Discard),
	}
	for name, r := range sinks {
		for _, ev := range sampleEvents() {
			r.Record(ev)
		}
		evs := sampleEvents()
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			r.Record(evs[i%len(evs)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: Record allocates %v times per event, want 0", name, allocs)
		}
	}
}

// TestBufferGrowthCopiesLittle pins Buffer's doubling growth: recording n
// events into an unbounded Buffer allocates less than three times the
// final backing array (append's ~1.25× growth allocates about five times).
func TestBufferGrowthCopiesLittle(t *testing.T) {
	const n = 50_000
	ev := sampleEvents()[1]
	b := NewBuffer(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		b.Record(ev)
	}
	runtime.ReadMemStats(&after)
	if b.Len() != n {
		t.Fatalf("Len = %d, want %d", b.Len(), n)
	}
	final := uint64(cap(b.Events)) * uint64(unsafe.Sizeof(ev))
	if got := after.TotalAlloc - before.TotalAlloc; got >= 3*final {
		t.Errorf("recording %d events allocated %d bytes, want < 3× the final array's %d", n, got, final)
	}
}

// TestBufferGrowthStopsAtLimit checks that growth never reserves more than
// the cap and that the cap still drops the excess.
func TestBufferGrowthStopsAtLimit(t *testing.T) {
	const limit = 100
	b := NewBuffer(limit)
	for i := 0; i < 3*limit; i++ {
		b.Record(Event{T: float64(i), Kind: KindSubmit})
	}
	if b.Len() != limit || cap(b.Events) != limit {
		t.Fatalf("Len = %d, cap = %d, want both %d", b.Len(), cap(b.Events), limit)
	}
	for i, ev := range b.Events {
		if ev.T != float64(i) {
			t.Fatalf("event %d has T = %v, want %d", i, ev.T, i)
		}
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := NewBuffer(0), NewBuffer(0)
	tee := Tee{a, b}
	for _, ev := range sampleEvents() {
		tee.Record(ev)
	}
	if a.Len() != 4 || b.Len() != 4 {
		t.Errorf("tee lengths: %d, %d", a.Len(), b.Len())
	}
}

func TestCountByKind(t *testing.T) {
	m := CountByKind(sampleEvents())
	if m[KindSubmit] != 1 || m[KindSeek] != 1 || m[KindComplete] != 1 {
		t.Errorf("counts: %v", m)
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"submit", "seek", "L0.D1 (tape 3)", "robot-0", "queue=2", "dur=2.25s"} {
		if !strings.Contains(out, frag) {
			t.Errorf("text missing %q:\n%s", frag, out)
		}
	}
}
