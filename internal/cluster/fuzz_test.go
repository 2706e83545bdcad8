package cluster

import (
	"testing"

	"paralleltape/internal/rng"
	"paralleltape/internal/workload"
)

// FuzzRunMatchesReference generates a workload from fuzzed generator
// parameters, clusters it under a fuzzed configuration, and requires Run to
// match the verbatim map-based referenceRun bit for bit and to partition
// the workload. The sizes are folded into at most 4,000 objects, 150
// requests and 60 objects per request, so one execution takes milliseconds
// (a few hundred at the very largest shapes); inputs the generator
// rejects, and α or thresholds outside [0, 4] and [0, 1], are skipped.
func FuzzRunMatchesReference(f *testing.F) {
	type shape struct {
		seed              uint64
		objects, requests uint16
		minLen, lenSpan   uint8
		alpha             float64
	}
	// The generated shapes of TestRunMatchesReference ("paper" and
	// "dense"), plus small generated analogs of its crafted "chains" and
	// "collapse" workloads.
	shapes := []shape{
		{7, 4000, 80, 20, 20, 0.3},
		{23, 1500, 120, 5, 55, 0.4},
		{1, 6, 4, 2, 0, 0.3},
		{2, 8, 3, 2, 2, 0.3},
	}
	type config struct {
		linkage    uint8
		threshold  float64
		maxObjects uint16
		maxBytes   int64
	}
	// The nine configurations of TestRunMatchesReference.
	configs := []config{
		{uint8(Average), 0, 0, 0},
		{uint8(Single), 0, 0, 0},
		{uint8(Complete), 0, 0, 0},
		{uint8(Average), 0.01, 0, 0},
		{uint8(Single), 0.005, 0, 0},
		{uint8(Complete), 0.002, 0, 0},
		{uint8(Average), 0, 64, 1 << 20},
		{uint8(Single), 0, 16, 0},
		{uint8(Complete), 0, 0, 1 << 18},
	}
	for _, s := range shapes {
		for _, c := range configs {
			f.Add(s.seed, s.objects, s.requests, s.minLen, s.lenSpan, s.alpha,
				c.linkage, c.threshold, c.maxObjects, c.maxBytes)
		}
	}

	f.Fuzz(func(t *testing.T, seed uint64, objects, requests uint16, minLen, lenSpan uint8,
		alpha float64, linkage uint8, threshold float64, maxObjects uint16, maxBytes int64) {
		if !(alpha >= 0 && alpha <= 4) || !(threshold >= 0 && threshold <= 1) {
			t.Skip("α or threshold outside the fuzzed ranges")
		}
		p := workload.Defaults()
		p.NumObjects = int(objects) % 4001
		p.NumRequests = int(requests) % 151
		p.MinReqLen = int(minLen) % 61
		p.MaxReqLen = p.MinReqLen + int(lenSpan)%(61-p.MinReqLen)
		p.Alpha = alpha
		if p.Validate() != nil {
			t.Skip("generator parameters rejected")
		}
		w, err := workload.Generate(p, rng.New(seed))
		if err != nil {
			t.Skip(err)
		}
		cfg := Config{
			Linkage:    Linkage(linkage % 3),
			Threshold:  threshold,
			MaxObjects: int(maxObjects),
			MaxBytes:   maxBytes,
		}
		want, err := referenceRun(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, got, want)
		if err := got.Validate(w); err != nil {
			t.Fatal(err)
		}
	})
}
