package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Exporters render events in the three documented formats
// (docs/OBSERVABILITY.md): JSONL for machine consumption, CSV for
// spreadsheets, and aligned text for eyeballs. Both JSONL and CSV encode
// floats with strconv's shortest round-trip representation, so a trace is
// byte-identical across runs with the same seed and configuration.

// JSONLWriter is a streaming Recorder writing one JSON object per event
// per line. Close flushes; errors are sticky and surfaced by Close.
type JSONLWriter struct {
	w    *bufio.Writer
	err  error
	enc  encoder
	line []byte // reused encoding buffer, so Record does not allocate
}

// NewJSONLWriter wraps w in a buffered JSONL event sink.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w)}
}

// Record writes the event as one JSON line.
func (j *JSONLWriter) Record(ev Event) {
	if j.err != nil {
		return
	}
	j.line = j.enc.appendJSON(j.line[:0], &ev)
	if _, err := j.w.Write(j.line); err != nil {
		j.err = err
	}
}

// Close flushes buffered lines and reports the first write error.
func (j *JSONLWriter) Close() error {
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}

// memo holds the encoding of the last value one field was encoded with,
// keyed by the value's bits, so a repeated value is copied rather than
// formatted again. Bits, not ==, decide a repeat: +0 and -0 are equal but
// encode as "0" and "-0".
type memo struct {
	bits uint64
	n    int      // length of the cached encoding; 0 until the first value
	enc  [24]byte // fits any shortest float64 and any int64
}

// float appends v's shortest round-trip decimal.
func (m *memo) float(b []byte, v float64) []byte {
	if bits := math.Float64bits(v); m.n == 0 || bits != m.bits {
		m.bits = bits
		m.n = len(strconv.AppendFloat(m.enc[:0], v, 'g', -1, 64))
	}
	return append(b, m.enc[:m.n]...)
}

// int appends v in decimal.
func (m *memo) int(b []byte, v int64) []byte {
	if bits := uint64(v); m.n == 0 || bits != m.bits {
		m.bits = bits
		m.n = len(strconv.AppendInt(m.enc[:0], v, 10))
	}
	return append(b, m.enc[:m.n]...)
}

// encoder renders events for JSONLWriter and CSVWriter. It memoizes the
// fields whose values repeat from event to event: the time (most events
// share their predecessor's instant), the request, span and byte count,
// and the duration per kind (robot moves, loads and empty-drive rewinds
// are constants). The small index fields go through strconv's fast path
// for small integers.
type encoder struct {
	t, req, span, bytes memo
	dur                 [numKinds]memo
}

// appendDur appends ev.Dur through its kind's memo.
func (e *encoder) appendDur(b []byte, ev *Event) []byte {
	if int(ev.Kind) < numKinds {
		return e.dur[ev.Kind].float(b, ev.Dur)
	}
	return strconv.AppendFloat(b, ev.Dur, 'g', -1, 64)
}

// appendJSON encodes one event with a fixed key order, omitting fields
// that are not applicable (-1 indices, zero durations, empty names). The
// key order and omission rules are part of the documented schema.
func (e *encoder) appendJSON(b []byte, ev *Event) []byte {
	b = append(b, `{"t":`...)
	b = e.t.float(b, ev.T)
	b = append(b, `,"kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, '"')
	if ev.Lib >= 0 {
		b = append(b, `,"lib":`...)
		b = strconv.AppendInt(b, int64(ev.Lib), 10)
	}
	if ev.Drive >= 0 {
		b = append(b, `,"drive":`...)
		b = strconv.AppendInt(b, int64(ev.Drive), 10)
	}
	if ev.Tape >= 0 {
		b = append(b, `,"tape":`...)
		b = strconv.AppendInt(b, int64(ev.Tape), 10)
	}
	if ev.Req >= 0 {
		b = append(b, `,"req":`...)
		b = e.req.int(b, ev.Req)
	}
	if ev.Span != 0 {
		b = append(b, `,"span":`...)
		b = e.span.int(b, ev.Span)
	}
	if ev.Bytes != 0 {
		b = append(b, `,"bytes":`...)
		b = e.bytes.int(b, ev.Bytes)
	}
	if ev.Dur != 0 {
		b = append(b, `,"dur":`...)
		b = e.appendDur(b, ev)
	}
	if ev.Queue != 0 {
		b = append(b, `,"queue":`...)
		b = strconv.AppendInt(b, int64(ev.Queue), 10)
	}
	if ev.Name != "" {
		b = append(b, `,"name":`...)
		b = strconv.AppendQuote(b, ev.Name)
	}
	b = append(b, '}', '\n')
	return b
}

// appendCSV encodes one event as a row under CSVColumns, with empty cells
// for the fields appendJSON omits.
func (e *encoder) appendCSV(b []byte, ev *Event) []byte {
	b = e.t.float(b, ev.T)
	b = append(b, ',')
	b = append(b, ev.Kind.String()...)
	b = appendOptInt(b, int64(ev.Lib), ev.Lib >= 0)
	b = appendOptInt(b, int64(ev.Drive), ev.Drive >= 0)
	b = appendOptInt(b, int64(ev.Tape), ev.Tape >= 0)
	b = append(b, ',')
	if ev.Req >= 0 {
		b = e.req.int(b, ev.Req)
	}
	b = append(b, ',')
	if ev.Span != 0 {
		b = e.span.int(b, ev.Span)
	}
	b = append(b, ',')
	if ev.Bytes != 0 {
		b = e.bytes.int(b, ev.Bytes)
	}
	b = append(b, ',')
	if ev.Dur != 0 {
		b = e.appendDur(b, ev)
	}
	b = appendOptInt(b, int64(ev.Queue), ev.Queue != 0)
	b = append(b, ',')
	b = append(b, ev.Name...) // resource names contain no commas/quotes
	b = append(b, '\n')
	return b
}

// appendOptInt appends ",v" when present, "," otherwise.
func appendOptInt(b []byte, v int64, present bool) []byte {
	b = append(b, ',')
	if present {
		b = strconv.AppendInt(b, v, 10)
	}
	return b
}

// CSVColumns is the fixed CSV header: every event populates the same
// column set, with empty cells for not-applicable fields.
var CSVColumns = []string{
	"t", "kind", "lib", "drive", "tape", "req", "span", "bytes", "dur", "queue", "name",
}

// CSVWriter is a streaming Recorder writing one CSV row per event under a
// fixed header. Close flushes; errors are sticky and surfaced by Close.
type CSVWriter struct {
	w      *bufio.Writer
	err    error
	header bool
	enc    encoder
	line   []byte // reused encoding buffer, so Record does not allocate
}

// NewCSVWriter wraps w in a buffered CSV event sink. The header row is
// written before the first event.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: bufio.NewWriter(w)}
}

// Record writes the event as one CSV row.
func (c *CSVWriter) Record(ev Event) {
	if c.err != nil {
		return
	}
	if !c.header {
		c.header = true
		if _, err := c.w.WriteString(strings.Join(CSVColumns, ",") + "\n"); err != nil {
			c.err = err
			return
		}
	}
	c.line = c.enc.appendCSV(c.line[:0], &ev)
	if _, err := c.w.Write(c.line); err != nil {
		c.err = err
	}
}

// Close flushes buffered rows and reports the first write error.
func (c *CSVWriter) Close() error {
	if c.err != nil {
		return c.err
	}
	return c.w.Flush()
}

// WriteJSONL renders a recorded event slice as JSONL in one call.
func WriteJSONL(w io.Writer, events []Event) error {
	jw := NewJSONLWriter(w)
	for _, ev := range events {
		jw.Record(ev)
	}
	return jw.Close()
}

// WriteCSV renders a recorded event slice as CSV in one call.
func WriteCSV(w io.Writer, events []Event) error {
	cw := NewCSVWriter(w)
	for _, ev := range events {
		cw.Record(ev)
	}
	return cw.Close()
}

// WriteText renders events as aligned human-readable lines, one per event.
func WriteText(w io.Writer, events []Event) error {
	for _, ev := range events {
		var loc string
		switch {
		case ev.Drive >= 0 && ev.Tape >= 0:
			loc = fmt.Sprintf("L%d.D%d (tape %d)", ev.Lib, ev.Drive, ev.Tape)
		case ev.Drive >= 0:
			loc = fmt.Sprintf("L%d.D%d", ev.Lib, ev.Drive)
		case ev.Name != "":
			loc = ev.Name
		default:
			loc = "-"
		}
		extra := ""
		if ev.Dur > 0 {
			extra = fmt.Sprintf("  dur=%.2fs", ev.Dur)
		}
		if ev.Queue > 0 {
			extra += fmt.Sprintf("  queue=%d", ev.Queue)
		}
		if _, err := fmt.Fprintf(w, "%10.2fs  %-16s req=%-4d %-18s bytes=%d%s\n",
			ev.T, ev.Kind, ev.Req, loc, ev.Bytes, extra); err != nil {
			return err
		}
	}
	return nil
}
