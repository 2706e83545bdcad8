// Package metrics aggregates simulator measurements into reportable
// quantities, at two granularities:
//
//   - Session statistics (Summarize, AggregateSession): the paper's §6
//     figures — effective bandwidth, average response time, and the tape
//     switch / data seek / data transfer decomposition — with percentile
//     summaries.
//   - Per-component timelines (BuildTimeline): busy/idle utilization per
//     drive, robot-arm occupancy and queue-depth series per library,
//     reduced from a recorded event trace (internal/trace) and rendered
//     in the run-report format documented in docs/OBSERVABILITY.md.
//
// Rendering helpers (Table, Histogram, BarChart) produce aligned text and
// CSV for the CLIs and the bench harness.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"paralleltape/internal/tapesys"
)

// Summary is a univariate statistical summary.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, Max           float64
	P50, P90, P95, P99 float64
}

// Summarize computes a Summary of xs. An empty input yields the zero value.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(sq / float64(len(xs)-1))
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	s.P50 = percentile(sorted, 0.50)
	s.P90 = percentile(sorted, 0.90)
	s.P95 = percentile(sorted, 0.95)
	s.P99 = percentile(sorted, 0.99)
	return s
}

// percentile interpolates linearly on a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// SessionStats aggregates a simulated request session — the paper's "repeat
// 200 times and average" loop.
type SessionStats struct {
	Requests int
	Bytes    int64

	// The four §6 metrics, averaged over requests.
	MeanResponse float64
	MeanSwitch   float64
	MeanSeek     float64
	MeanTransfer float64

	// Effective bandwidth: mean of per-request bandwidths (the paper's
	// averaging) plus the aggregate ratio for reference.
	MeanBandwidth float64 // mean over requests of bytes/response
	AggBandwidth  float64 // Σbytes / Σresponse

	// Diagnostics.
	MeanSwitches   float64
	MeanTapes      float64
	MeanDrivesUsed float64
	MeanRobotWait  float64
	MeanMountedPct float64

	// Degraded-mode aggregates (docs/RESILIENCE.md). On a failure-free
	// untimed session Availability is 1, MeanGoodput equals MeanBandwidth,
	// and the counters stay zero.
	BytesServed  int64   // payload delivered within request deadlines
	Availability float64 // BytesServed / Bytes — the delivered fraction
	MeanGoodput  float64 // mean over requests of BytesServed/response
	MeanRetries  float64 // fault-interrupted operations retried, per request
	TimedOut     int     // requests that exceeded their timeout
	FailedGroups int     // tape groups abandoned across the session
	MediaErrors  int     // tape groups lost to permanent media errors

	Response Summary
	Switch   Summary
	Seek     Summary
	Transfer Summary
}

// AggregateSession reduces per-request metrics to session statistics.
func AggregateSession(ms []tapesys.RequestMetrics) SessionStats {
	st := SessionStats{Requests: len(ms)}
	if len(ms) == 0 {
		return st
	}
	var responses, switches, seeks, xfers, bws []float64
	var totalResp float64
	for _, m := range ms {
		st.Bytes += m.Bytes
		responses = append(responses, m.Response)
		switches = append(switches, m.Switch)
		seeks = append(seeks, m.Seek)
		xfers = append(xfers, m.Transfer)
		bws = append(bws, m.Bandwidth())
		totalResp += m.Response
		st.MeanSwitches += float64(m.Switches)
		st.MeanTapes += float64(m.TapesTouched)
		st.MeanDrivesUsed += float64(m.DrivesUsed)
		st.MeanRobotWait += m.RobotWait
		st.MeanMountedPct += m.MountedRatio
		st.BytesServed += m.BytesServed
		st.MeanGoodput += m.Goodput()
		st.MeanRetries += float64(m.Retries)
		if m.TimedOut {
			st.TimedOut++
		}
		st.FailedGroups += m.FailedGroups
		st.MediaErrors += m.MediaErrors
	}
	n := float64(len(ms))
	st.Response = Summarize(responses)
	st.Switch = Summarize(switches)
	st.Seek = Summarize(seeks)
	st.Transfer = Summarize(xfers)
	st.MeanResponse = st.Response.Mean
	st.MeanSwitch = st.Switch.Mean
	st.MeanSeek = st.Seek.Mean
	st.MeanTransfer = st.Transfer.Mean
	st.MeanBandwidth = Summarize(bws).Mean
	if totalResp > 0 {
		st.AggBandwidth = float64(st.Bytes) / totalResp
	}
	st.MeanSwitches /= n
	st.MeanTapes /= n
	st.MeanDrivesUsed /= n
	st.MeanRobotWait /= n
	st.MeanMountedPct /= n
	st.MeanGoodput /= n
	st.MeanRetries /= n
	if st.Bytes > 0 {
		st.Availability = float64(st.BytesServed) / float64(st.Bytes)
	}
	return st
}

// Table is a simple aligned text table with an optional CSV view.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if l := len([]rune(cell)); l > widths[i] {
				widths[i] = l
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := len([]rune(cell)); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (no title line), quoting cells that
// contain commas or quotes.
func (t *Table) RenderCSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
