package trace

import (
	"bufio"
	"fmt"
	"io"
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
	j.line = appendJSON(j.line[:0], ev)
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

// appendJSON encodes one event with a fixed key order, omitting fields
// that are not applicable (-1 indices, zero durations, empty names). The
// key order and omission rules are part of the documented schema.
func appendJSON(b []byte, ev Event) []byte {
	b = append(b, `{"t":`...)
	b = appendFloat(b, ev.T)
	b = append(b, `,"kind":"`...)
	b = append(b, ev.Kind...)
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
		b = strconv.AppendInt(b, ev.Req, 10)
	}
	if ev.Span != 0 {
		b = append(b, `,"span":`...)
		b = strconv.AppendInt(b, ev.Span, 10)
	}
	if ev.Bytes != 0 {
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, ev.Bytes, 10)
	}
	if ev.Dur != 0 {
		b = append(b, `,"dur":`...)
		b = appendFloat(b, ev.Dur)
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

// appendFloat appends the shortest decimal that round-trips to v.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
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
	b := appendFloat(c.line[:0], ev.T)
	b = append(b, ',')
	b = append(b, ev.Kind...)
	b = appendOptInt(b, int64(ev.Lib), ev.Lib >= 0)
	b = appendOptInt(b, int64(ev.Drive), ev.Drive >= 0)
	b = appendOptInt(b, int64(ev.Tape), ev.Tape >= 0)
	b = appendOptInt(b, ev.Req, ev.Req >= 0)
	b = appendOptInt(b, ev.Span, ev.Span != 0)
	b = appendOptInt(b, ev.Bytes, ev.Bytes != 0)
	b = append(b, ',')
	if ev.Dur != 0 {
		b = appendFloat(b, ev.Dur)
	}
	b = appendOptInt(b, int64(ev.Queue), ev.Queue != 0)
	b = append(b, ',')
	b = append(b, ev.Name...) // resource names contain no commas/quotes
	b = append(b, '\n')
	c.line = b
	if _, err := c.w.Write(b); err != nil {
		c.err = err
	}
}

// appendOptInt appends ",v" when present, "," otherwise.
func appendOptInt(b []byte, v int64, present bool) []byte {
	b = append(b, ',')
	if present {
		b = strconv.AppendInt(b, v, 10)
	}
	return b
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
