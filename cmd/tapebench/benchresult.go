package main

// The -json flag emits a benchmark-result document so runs can be diffed
// across commits (the repo keeps baselines as BENCH_NNNN.json). The layout
// is versioned by the schema string below and documented in
// docs/OBSERVABILITY.md; adding fields is allowed, renaming or removing
// them requires a new schema version.

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"paralleltape"
	"paralleltape/internal/cluster"
	"paralleltape/internal/loadbalance"
	"paralleltape/internal/organpipe"
	"paralleltape/internal/sim"
	"paralleltape/internal/units"
)

// benchResultSchema versions the -json document layout.
const benchResultSchema = "tapebench/bench-result/v1"

// benchResult is the top-level -json document: environment identity,
// experiment configuration, harness micro-benchmarks, and the domain
// metric (effective bandwidth per scheme) for regression tracking.
type benchResult struct {
	Schema      string  `json:"schema"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Experiment  string  `json:"experiment"`
	Quick       bool    `json:"quick"`
	Seed        uint64  `json:"seed"`
	Requests    int     `json:"requests"`
	Scale       float64 `json:"scale"`
	WallSeconds float64 `json:"wall_seconds"`
	// Benchmarks holds testing.Benchmark measurements of the simulator
	// hot paths at the configured scale.
	Benchmarks []benchMeasurement `json:"benchmarks"`
	// BandwidthMBpsByScheme is each scheme's mean effective bandwidth
	// over every exhibit row it appears in — the paper's headline metric.
	BandwidthMBpsByScheme map[string]float64 `json:"bandwidth_mbps_by_scheme"`
	// Exhibits embeds each regenerated report in its WriteJSON form.
	Exhibits []json.RawMessage `json:"exhibits"`
}

// benchMeasurement is one testing.Benchmark result.
type benchMeasurement struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// detectCommit identifies the source revision: the TAPEBENCH_COMMIT
// environment variable wins (set by scripts that know the hash), then the
// vcs.revision stamped into the binary by `go build`, then "unknown"
// (e.g. `go run` of a dirty tree).
func detectCommit() string {
	if c := os.Getenv("TAPEBENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// writeBenchResult measures the micro-benchmarks and writes the full
// bench-result document. wall is the exhibit-regeneration wall time; the
// micro-benchmarks run here, after it is measured, so they do not inflate
// it.
func writeBenchResult(w io.Writer, experiment string, cfg paralleltape.ExperimentConfig,
	quick bool, wall time.Duration, reps []*paralleltape.ExperimentReport) error {
	res := benchResult{
		Schema:                benchResultSchema,
		GoVersion:             runtime.Version(),
		Commit:                detectCommit(),
		Experiment:            experiment,
		Quick:                 quick,
		Seed:                  cfg.Seed,
		Requests:              cfg.Requests,
		Scale:                 cfg.Scale,
		WallSeconds:           wall.Seconds(),
		BandwidthMBpsByScheme: map[string]float64{},
	}
	sum := map[string]float64{}
	n := map[string]int{}
	for _, rep := range reps {
		for _, row := range rep.Rows {
			if row.Err == nil && row.Scheme != "" {
				sum[row.Scheme] += row.Stats.MeanBandwidth / 1e6
				n[row.Scheme]++
			}
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			return err
		}
		res.Exhibits = append(res.Exhibits, json.RawMessage(bytes.TrimSpace(buf.Bytes())))
	}
	for scheme := range sum {
		res.BandwidthMBpsByScheme[scheme] = sum[scheme] / float64(n[scheme])
	}
	var err error
	if res.Benchmarks, err = measureBenchmarks(cfg); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&res)
}

// testingInitOnce guards testing.Init, which registers the test.* flags
// exactly once so setBenchtime can drive testing.Benchmark's -benchtime.
var testingInitOnce sync.Once

// setBenchtime points testing.Benchmark at a benchtime value ("1s",
// "30x", ...). Placement benchmarks run a fixed iteration count instead of
// the adaptive 1s default: one placement op costs ~100 ms at full scale, so
// the time-targeted mode stops after very few iterations and the reported
// ns/op jitters more than the -compare gate tolerates. A fixed count keeps
// the measurement window identical across runs.
func setBenchtime(v string) error {
	testingInitOnce.Do(testing.Init)
	return flag.Set("test.benchtime", v)
}

// measureBenchmarks runs the reference micro-benchmarks with
// testing.Benchmark at the configured scale. The names are part of the
// schema: simulate-request is the untraced Submit hot path (the
// allocation-regression guard), simulate-request-traced adds an in-memory
// trace buffer, placement-parallel-batch is the end-to-end placement
// cost, placement-cluster / placement-organpipe / placement-loadbalance
// isolate the pipeline's three stages (§5.1 clustering, §5.3 step 6
// alignment, §5.4 balancing), and engine-schedule / engine-schedule-skewed
// / engine-schedule-churn isolate the event-queue kernel (uniform deadlines,
// a near/far mix, and a standing population migrating through the ladder
// queue's tiers; all mirror the benchmarks in internal/sim and must stay at
// zero allocs/op).
func measureBenchmarks(cfg paralleltape.ExperimentConfig) ([]benchMeasurement, error) {
	w, err := paralleltape.GenerateWorkload(benchParams(cfg), cfg.Seed)
	if err != nil {
		return nil, err
	}
	hw := cfg.HW
	pl, err := paralleltape.Place(hw, paralleltape.NewParallelBatch(cfg.M), w)
	if err != nil {
		return nil, err
	}
	plain, err := paralleltape.NewSystem(hw, pl)
	if err != nil {
		return nil, err
	}
	traced, err := paralleltape.NewSystem(hw, pl)
	if err != nil {
		return nil, err
	}
	tbuf := traced.EnableTrace(0)
	reqs := w.Requests

	var opErr error
	submit := func(sys *paralleltape.System, buf *paralleltape.TraceBuffer) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Submit(&reqs[i%len(reqs)]); err != nil {
					opErr = err
					b.FailNow()
				}
				if buf != nil {
					buf.Reset() // keep memory flat; recording cost still measured
				}
			}
		}
	}
	place := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := paralleltape.Place(hw, paralleltape.NewParallelBatch(cfg.M), w); err != nil {
				opErr = err
				b.FailNow()
			}
		}
	}
	clusterStage := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.Run(w, cluster.DefaultConfig()); err != nil {
				opErr = err
				b.FailNow()
			}
		}
	}
	// Alignment stage: organ-pipe one tape-sized item list drawn from the
	// workload's probability profile.
	probs := w.ObjectProbs()
	opItems := make([]organpipe.Item, 512)
	for i := range opItems {
		opItems[i] = organpipe.Item{Index: i, Weight: probs[i%len(probs)]}
	}
	var arr organpipe.Arranger
	organStage := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			arr.Arrange(opItems)
		}
	}
	// Balancing stage: zigzag one cluster-sized item list across a batch,
	// resetting the tape states each op so every iteration does the same
	// work.
	lbItems := make([]loadbalance.Item, 64)
	for i := range lbItems {
		size := int64(i%7+1) * units.MB
		lbItems[i] = loadbalance.Item{Load: probs[i%len(probs)] * float64(size), Size: size}
	}
	lbStates := make([]loadbalance.TapeState, 8)
	lbPtrs := make([]*loadbalance.TapeState, len(lbStates))
	for i := range lbStates {
		lbPtrs[i] = &lbStates[i]
	}
	var packer loadbalance.Packer
	balanceStage := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range lbStates {
				lbStates[j] = loadbalance.TapeState{Free: 1 << 40}
			}
			if _, err := packer.Zigzag(lbItems, lbPtrs, len(lbStates)); err != nil {
				opErr = err
				b.FailNow()
			}
		}
	}
	engSchedule := func(b *testing.B) {
		eng := sim.NewEngine()
		fn := func() {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Schedule(1, fn)
			eng.Run()
		}
	}
	engScheduleSkewed := func(b *testing.B) {
		eng := sim.NewEngine()
		fn := func() {}
		delays := [...]float64{0.001, 1800, 0.01, 700, 0.1, 2400, 1, 300}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Schedule(delays[i%len(delays)], fn)
			if i%256 == 255 {
				eng.RunUntil(eng.Now() + 4000)
			}
		}
		eng.Run()
	}
	engScheduleChurn := func(b *testing.B) {
		eng := sim.NewEngine()
		fn := func() {}
		far := [...]float64{30000, 1200, 90000, 400, 7000, 250000, 2600, 45000}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Schedule(float64(i%13)*0.25, fn)
			eng.Schedule(far[i%len(far)], fn)
			if i%64 == 63 {
				eng.RunUntil(eng.Now() + 30)
			}
			if i%1024 == 1023 {
				eng.RunUntil(eng.Now() + 100000)
			}
		}
		eng.Run()
	}

	var out []benchMeasurement
	for _, bench := range []struct {
		name      string
		benchtime string
		fn        func(b *testing.B)
	}{
		{"simulate-request", "1s", submit(plain, nil)},
		{"simulate-request-traced", "1s", submit(traced, tbuf)},
		{"placement-parallel-batch", "30x", place},
		{"placement-cluster", "30x", clusterStage},
		{"placement-organpipe", "1s", organStage},
		{"placement-loadbalance", "1s", balanceStage},
		{"engine-schedule", "1s", engSchedule},
		{"engine-schedule-skewed", "1s", engScheduleSkewed},
		{"engine-schedule-churn", "1s", engScheduleChurn},
	} {
		if err := setBenchtime(bench.benchtime); err != nil {
			return nil, err
		}
		r := testing.Benchmark(bench.fn)
		if opErr != nil {
			return nil, opErr
		}
		out = append(out, benchMeasurement{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out, nil
}

// benchParams mirrors the root bench harness's scaled workload parameters
// (bench_test.go) so -json measurements are comparable with
// `go test -bench`: object population and request lengths scale, the
// predefined request count stays at the paper's 300, and the object-size
// tail is capped relative to the (possibly shrunken) cartridge.
func benchParams(cfg paralleltape.ExperimentConfig) paralleltape.WorkloadParams {
	p := paralleltape.DefaultWorkloadParams()
	p.NumObjects = int(float64(p.NumObjects) * cfg.Scale)
	if p.NumObjects < 200 {
		p.NumObjects = 200
	}
	if cfg.Scale != 1 {
		p.MinReqLen = int(float64(p.MinReqLen) * cfg.Scale)
		if p.MinReqLen < 2 {
			p.MinReqLen = 2
		}
		p.MaxReqLen = int(float64(p.MaxReqLen) * cfg.Scale)
		if p.MaxReqLen < p.MinReqLen {
			p.MaxReqLen = p.MinReqLen
		}
		if cap40 := cfg.HW.Capacity / 40; p.MaxObjSize > cap40 {
			p.MaxObjSize = cap40
		}
	}
	return p
}
