package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
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

// TestParseJSONLRejectsWhatEventsCannotHold checks that a kind the schema
// does not declare, or an index outside int32, fails with its line number
// instead of being stored as something else.
func TestParseJSONLRejectsWhatEventsCannotHold(t *testing.T) {
	const first = `{"t":0,"kind":"submit","req":0}` + "\n\n"
	cases := []struct {
		name, line, want string
	}{
		{"unknown kind", `{"t":1,"kind":"teleport","req":0}`, `unknown kind "teleport"`},
		{"kind differing in case", `{"t":1,"kind":"Seek","req":0}`, `unknown kind "Seek"`},
		{"lib above int32", `{"t":1,"kind":"seek","lib":2147483648}`, "lib"},
		{"drive below int32", `{"t":1,"kind":"seek","drive":-2147483649}`, "drive"},
		{"tape above int32", `{"t":1,"kind":"seek","tape":9007199254740993}`, "tape"},
		{"queue above int32", `{"t":1,"kind":"resource-wait","queue":4294967296}`, "queue"},
		{"int32 bounds", `{"t":1,"kind":"seek","lib":2147483647,"drive":-2147483648,"queue":-2147483648}`, ""},
	}
	for _, c := range cases {
		events, err := ParseJSONL(strings.NewReader(first + c.line + "\n"))
		if c.want == "" {
			if err != nil || len(events) != 2 || events[1].Lib != math.MaxInt32 || events[1].Queue != math.MinInt32 {
				t.Errorf("%s: parsed %+v, %v", c.name, events, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want a line-3 error mentioning %q", c.name, err, c.want)
		}
	}
}

// TestEventSize pins the event at 80 bytes: every Tee copy, Buffer
// doubling and GC scan pays for each byte.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 80 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 80", got)
	}
}

// TestKindNames checks the name table both ways and the zero Kind.
func TestKindNames(t *testing.T) {
	for _, k := range append(Kinds(), 0) {
		back, ok := ParseKind(k.String())
		if !ok || back != k {
			t.Errorf("ParseKind(%q) = %d, %v, want %d", k, back, ok, k)
		}
	}
	if _, ok := ParseKind("Kind(99)"); ok {
		t.Error(`ParseKind("Kind(99)") succeeded`)
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("Kind(99).String() = %q", got)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []Event{{}}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), `{"t":0,"kind":"","lib":0,"drive":0,"tape":0,"req":0}`+"\n"; got != want {
		t.Errorf("zero event encodes as %s, want %s", got, want)
	}
}

// TestMemoizedEncodingMatchesFreshWriters is the oracle for the writers'
// memoized fields: over a long random event sequence whose fields repeat
// heavily, a JSONLWriter and a CSVWriter must write exactly the bytes that
// a fresh writer per event, which has nothing memoized, writes. The
// sequence opens with times and durations alternating between +0 and -0,
// which are equal but encode differently, and with kinds sharing a
// duration.
func TestMemoizedEncodingMatchesFreshWriters(t *testing.T) {
	negZero := math.Copysign(0, -1)
	floats := []float64{0, negZero, 1, 1.5, 7.6, 15.2, 19, 19.000000000000004, 0.1 + 0.2,
		1e21, 1e-7, 123456.789, -2.5, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1)}
	ints := []int64{-2, -1, 0, 1, 42, 1<<32 | 7, math.MaxInt64, math.MinInt64}
	idx := []int32{-1, 0, 1, 7, math.MaxInt32, math.MinInt32}
	kinds := append(Kinds(), 0, Kind(99))
	names := []string{"", "robot-0", "robot-1"}

	var events []Event
	for i := 0; i < 8; i++ {
		z := float64(0)
		if i%2 == 1 {
			z = negZero
		}
		events = append(events,
			Event{T: z, Kind: KindRewind, Lib: 0, Drive: 1, Tape: -1, Req: 3, Span: 9, Dur: z},
			Event{T: z, Kind: KindRobot, Lib: 0, Drive: 1, Tape: 4, Req: 3, Span: 9, Dur: 19},
			Event{T: 19, Kind: KindLoad, Lib: 0, Drive: 1, Tape: 4, Req: 3, Span: 9, Dur: 19})
	}
	r := rand.New(rand.NewPCG(24, 80))
	prev := events[len(events)-1]
	for i := 0; i < 20000; i++ {
		ev := prev
		// Each field keeps its previous value half the time.
		keep := func() bool { return r.IntN(2) == 0 }
		if !keep() {
			ev.T = floats[r.IntN(len(floats))]
		}
		if !keep() {
			ev.Kind = kinds[r.IntN(len(kinds))]
		}
		if !keep() {
			ev.Lib, ev.Drive, ev.Tape = idx[r.IntN(len(idx))], idx[r.IntN(len(idx))], idx[r.IntN(len(idx))]
		}
		if !keep() {
			ev.Req = ints[r.IntN(len(ints))]
		}
		if !keep() {
			ev.Span = ints[r.IntN(len(ints))]
		}
		if !keep() {
			ev.Bytes = ints[r.IntN(len(ints))]
		}
		if !keep() {
			ev.Dur = floats[r.IntN(len(floats))]
		}
		if !keep() {
			ev.Queue = idx[r.IntN(len(idx))]
		}
		if !keep() {
			ev.Name = names[r.IntN(len(names))]
		}
		events = append(events, ev)
		prev = ev
	}

	var gotJSON, gotCSV, wantJSON, wantCSV bytes.Buffer
	jw, cw := NewJSONLWriter(&gotJSON), NewCSVWriter(&gotCSV)
	header := strings.Join(CSVColumns, ",") + "\n"
	wantCSV.WriteString(header)
	for _, ev := range events {
		jw.Record(ev)
		cw.Record(ev)
		var one bytes.Buffer
		if err := WriteJSONL(&one, []Event{ev}); err != nil {
			t.Fatal(err)
		}
		wantJSON.Write(one.Bytes())
		one.Reset()
		if err := WriteCSV(&one, []Event{ev}); err != nil {
			t.Fatal(err)
		}
		wantCSV.WriteString(strings.TrimPrefix(one.String(), header))
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		format    string
		got, want []byte
	}{{"JSONL", gotJSON.Bytes(), wantJSON.Bytes()}, {"CSV", gotCSV.Bytes(), wantCSV.Bytes()}} {
		if bytes.Equal(c.got, c.want) {
			continue
		}
		got, want := strings.Split(string(c.got), "\n"), strings.Split(string(c.want), "\n")
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%s line %d: memoized writer wrote\n%s\nfresh writer wrote\n%s", c.format, i+1, got[i], want[i])
			}
		}
		t.Fatalf("%s: memoized writer wrote %d lines, fresh writers %d", c.format, len(got), len(want))
	}
	if !strings.Contains(gotJSON.String(), `{"t":-0,"kind":"rewind"`) {
		t.Error(`no "t":-0 line: the sequence lost its signed zeros`)
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
