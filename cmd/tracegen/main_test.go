package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"paralleltape/internal/model"
)

func TestGenerateTraceFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "w.json")
	err := run(300, 15, 0.3, "64MB", "512MB", 1.1, 5, 10, 1.0, "2GB", 7, out, false, false)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := model.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumObjects() != 300 || w.NumRequests() != 15 {
		t.Errorf("counts: %d/%d", w.NumObjects(), w.NumRequests())
	}
	mean := w.MeanRequestBytes()
	if mean < 1.9e9 || mean > 2.1e9 {
		t.Errorf("mean request bytes = %v, want ≈2GB", mean)
	}
}

func TestAnalyzeMode(t *testing.T) {
	if err := run(200, 10, 0.3, "64MB", "256MB", 1.1, 4, 8, 1.0, "", 7, "", false, true); err != nil {
		t.Fatal(err)
	}
}

func TestStatsMode(t *testing.T) {
	if err := run(200, 10, 0.3, "64MB", "256MB", 1.1, 4, 8, 1.0, "", 7, "", true, false); err != nil {
		t.Fatal(err)
	}
}

func TestBadInputs(t *testing.T) {
	if err := run(200, 10, 0.3, "junk", "256MB", 1.1, 4, 8, 1.0, "", 7, "", true, false); err == nil {
		t.Error("bad min size accepted")
	}
	if err := run(200, 10, 0.3, "64MB", "junk", 1.1, 4, 8, 1.0, "", 7, "", true, false); err == nil {
		t.Error("bad max size accepted")
	}
	if err := run(200, 10, 0.3, "64MB", "256MB", 1.1, 4, 8, 1.0, "bogus", 7, "", true, false); err == nil {
		t.Error("bad target accepted")
	}
	if err := run(0, 10, 0.3, "64MB", "256MB", 1.1, 4, 8, 1.0, "", 7, "", true, false); err == nil {
		t.Error("zero objects accepted")
	}
	// Unchecked, a NaN alpha reaches dist.NewZipf and panics.
	if err := run(200, 10, math.NaN(), "64MB", "256MB", 1.1, 4, 8, 1.0, "", 7, "", true, false); err == nil {
		t.Error("NaN alpha accepted")
	}
}
