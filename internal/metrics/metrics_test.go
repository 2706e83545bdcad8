package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"paralleltape/internal/tapesys"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Min != 7 || s.Max != 7 || s.P50 != 7 {
		t.Errorf("single summary: %+v", s)
	}
	if s.Std != 0 {
		t.Errorf("single-element spread: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Errorf("mean = %v", s.Mean)
	}
	// Sample std of this classic set is sqrt(32/7).
	if want := math.Sqrt(32.0 / 7.0); math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("std = %v, want %v", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("range: %+v", s)
	}
	if s.P50 != 4.5 {
		t.Errorf("p50 = %v", s.P50)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Errorf("percentile 0.5 = %v", got)
	}
	if got := percentile(sorted, 0); got != 0 {
		t.Errorf("percentile 0 = %v", got)
	}
	if got := percentile(sorted, 1); got != 10 {
		t.Errorf("percentile 1 = %v", got)
	}
}

func TestSummarizeQuickBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max && s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregateSession(t *testing.T) {
	ms := []tapesys.RequestMetrics{
		{Bytes: 100, Response: 10, Seek: 1, Transfer: 5, Switch: 4, Switches: 2, TapesTouched: 3, DrivesUsed: 2, MountedRatio: 0.5},
		{Bytes: 300, Response: 20, Seek: 2, Transfer: 10, Switch: 8, Switches: 4, TapesTouched: 5, DrivesUsed: 4, MountedRatio: 1.0},
	}
	st := AggregateSession(ms)
	if st.Requests != 2 || st.Bytes != 400 {
		t.Errorf("totals: %+v", st)
	}
	if st.MeanResponse != 15 || st.MeanSeek != 1.5 || st.MeanTransfer != 7.5 || st.MeanSwitch != 6 {
		t.Errorf("means: %+v", st)
	}
	// Mean of per-request bandwidths: (10 + 15)/2 = 12.5.
	if math.Abs(st.MeanBandwidth-12.5) > 1e-9 {
		t.Errorf("MeanBandwidth = %v", st.MeanBandwidth)
	}
	// Aggregate: 400/30.
	if math.Abs(st.AggBandwidth-400.0/30) > 1e-9 {
		t.Errorf("AggBandwidth = %v", st.AggBandwidth)
	}
	if st.MeanSwitches != 3 || st.MeanTapes != 4 || st.MeanDrivesUsed != 3 {
		t.Errorf("diagnostics: %+v", st)
	}
	if math.Abs(st.MeanMountedPct-0.75) > 1e-9 {
		t.Errorf("MeanMountedPct = %v", st.MeanMountedPct)
	}
}

func TestAggregateSessionEmpty(t *testing.T) {
	st := AggregateSession(nil)
	if st.Requests != 0 || st.MeanBandwidth != 0 || st.AggBandwidth != 0 {
		t.Errorf("empty session: %+v", st)
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("longer-name", "22")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Demo\n") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
	// Aligned: "value" column starts at the same offset in all data rows.
	head := strings.Index(lines[1], "value")
	if head < 0 {
		t.Fatalf("no header: %q", lines[1])
	}
	if lines[3][head:head+1] != "1" || lines[4][head:head+2] != "22" {
		t.Errorf("misaligned rows:\n%s", out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tab := NewTable("", "a", "b", "c")
	tab.AddRow("x")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<nil>") {
		t.Errorf("padding failed:\n%s", buf.String())
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("ignored", "a", "b")
	tab.AddRow("plain", `with,comma`)
	tab.AddRow(`quote"inside`, "x")
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\nplain,\"with,comma\"\n\"quote\"\"inside\",x\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}
