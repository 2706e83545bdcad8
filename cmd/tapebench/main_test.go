package main

import (
	"bytes"
	"strings"
	"testing"

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

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nope", tinyCfg(), false, false); err == nil {
		t.Error("unknown experiment accepted")
	}
}
