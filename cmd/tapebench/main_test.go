package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"paralleltape"
)

func tinyCfg() paralleltape.ExperimentConfig {
	cfg := paralleltape.QuickExperimentConfig()
	cfg.Requests = 5
	cfg.Workers = 2
	return cfg
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig9", tinyCfg(), false, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"Figure 9", "parallel-batch", "completed in"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table1", tinyCfg(), true, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "parameter,value") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	if strings.Contains(out, "completed in") {
		t.Error("CSV output contains the trailer line")
	}
}

// TestCheckFlags: a negative -progress, or a negative or NaN -timeout or
// -mtbf, is an error naming the flag, with or without -faults; unchecked,
// -mtbf -1 without -faults ran every exhibit and exited 0.
func TestCheckFlags(t *testing.T) {
	if err := checkFlags(0, 0, 40000); err != nil {
		t.Errorf("default flags rejected: %v", err)
	}
	for _, c := range []struct {
		flag          string
		progress      time.Duration
		timeout, mtbf float64
	}{
		{"progress", -time.Second, 0, 40000},
		{"timeout", 0, math.NaN(), 40000},
		{"timeout", 0, -1, 40000},
		{"mtbf", 0, 0, -1},
		{"mtbf", 0, 0, math.NaN()},
	} {
		err := checkFlags(c.progress, c.timeout, c.mtbf)
		if err == nil || !strings.Contains(err.Error(), "-"+c.flag) {
			t.Errorf("bad -%s: err = %v, want an error naming the flag", c.flag, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope", tinyCfg(), false, false); err == nil {
		t.Error("unknown experiment accepted")
	}
}
