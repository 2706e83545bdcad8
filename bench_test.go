package paralleltape

// The bench harness regenerates every exhibit of the paper's evaluation
// section. BenchmarkExhibit has one sub-benchmark per exhibit ID, in the
// order experiments.IDs lists them:
//
//	go test -bench=Exhibit -benchmem                      # reduced (Quick) scale
//	go test -bench=Exhibit/fig6 -benchmem                 # one exhibit
//	PAPERSCALE=full go test -bench=Exhibit/fig6 -benchmem # full 30k-object scale
//
// Each sub-benchmark executes the whole experiment (every scheme ×
// parameter point with the paper's request-stream averaging), prints the
// regenerated table once, and reports the parallel-batch bandwidth at the
// experiment's reference point as a custom metric (MB/s) so runs can be
// compared numerically.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"paralleltape/internal/cluster"
	"paralleltape/internal/experiments"
	"paralleltape/internal/loadbalance"
	"paralleltape/internal/organpipe"
	"paralleltape/internal/units"
)

// benchCfg selects the experiment scale: Quick by default, the paper's
// full scale when PAPERSCALE=full.
func benchCfg() ExperimentConfig {
	if os.Getenv("PAPERSCALE") == "full" {
		return DefaultExperimentConfig()
	}
	return QuickExperimentConfig()
}

var benchPrintOnce sync.Map

// runExhibit executes experiment id b.N times, rendering its table on the
// first execution per process and reporting the parallel-batch reference
// bandwidth.
func runExhibit(b *testing.B, id string) {
	b.Helper()
	cfg := benchCfg()
	var rep *ExperimentReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = RunExperiment(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
	}
	if _, printed := benchPrintOnce.LoadOrStore(id, true); !printed {
		fmt.Println()
		if err := rep.Table.Render(os.Stdout); err != nil {
			b.Fatal(err)
		}
	}
	// Reference metric: mean parallel-batch bandwidth over the exhibit's
	// simulated rows (table1 has no rows; phases' rows carry no stats).
	var sum float64
	var n int
	for _, r := range rep.Rows {
		if r.Scheme == "parallel-batch" && r.Err == nil && r.Stats.Requests > 0 {
			sum += r.Stats.MeanBandwidth
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n)/1e6, "PB-MB/s")
	}
}

// BenchmarkExhibit regenerates every exhibit, one sub-benchmark per ID.
func BenchmarkExhibit(b *testing.B) {
	for _, id := range experiments.IDs() {
		b.Run(id, func(b *testing.B) { runExhibit(b, id) })
	}
}

// BenchmarkPlacementParallelBatch measures raw placement cost (clustering
// + sublists + balancing + alignment) at the configured scale.
func BenchmarkPlacementParallelBatch(b *testing.B) {
	cfg := benchCfg()
	w, err := GenerateWorkload(benchParams(cfg), cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	hw := cfg.HW
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Place(hw, NewParallelBatch(cfg.M), w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementCluster isolates the §5.1 clustering stage (atoms,
// similarity edges, agglomeration) of the placement pipeline at the
// configured scale.
func BenchmarkPlacementCluster(b *testing.B) {
	cfg := benchCfg()
	w, err := GenerateWorkload(benchParams(cfg), cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Run(w, cluster.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacementOrganPipe isolates the §5.3 step 6 alignment stage:
// organ-piping one tape-sized item list.
func BenchmarkPlacementOrganPipe(b *testing.B) {
	cfg := benchCfg()
	w, err := GenerateWorkload(benchParams(cfg), cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	probs := w.ObjectProbs()
	items := make([]organpipe.Item, 512)
	for i := range items {
		items[i] = organpipe.Item{Index: i, Weight: probs[i%len(probs)]}
	}
	var arr organpipe.Arranger
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.Arrange(items)
	}
}

// BenchmarkPlacementLoadBalance isolates the §5.4 balancing stage: zigzag
// of one cluster-sized item list across a tape batch.
func BenchmarkPlacementLoadBalance(b *testing.B) {
	cfg := benchCfg()
	w, err := GenerateWorkload(benchParams(cfg), cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	probs := w.ObjectProbs()
	items := make([]loadbalance.Item, 64)
	for i := range items {
		size := int64(i%7+1) * units.MB
		items[i] = loadbalance.Item{Load: probs[i%len(probs)] * float64(size), Size: size}
	}
	states := make([]loadbalance.TapeState, 8)
	ptrs := make([]*loadbalance.TapeState, len(states))
	for i := range states {
		ptrs[i] = &states[i]
	}
	var p loadbalance.Packer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range states {
			states[j] = loadbalance.TapeState{Free: 1 << 40}
		}
		if _, err := p.Zigzag(items, ptrs, len(states)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRun measures the simulation hot path with tracing disabled —
// the default configuration. Its allocs/op must not regress when
// observability hooks are added: with no recorder attached, every emit
// site is a nil check and nothing more.
func BenchmarkRun(b *testing.B) { benchSubmit(b, false) }

// BenchmarkRunTraced measures the same path with an in-memory trace
// buffer attached, bounding the cost of enabling observability.
func BenchmarkRunTraced(b *testing.B) { benchSubmit(b, true) }

func benchSubmit(b *testing.B, traced bool) {
	b.Helper()
	cfg := benchCfg()
	w, err := GenerateWorkload(benchParams(cfg), cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	hw := cfg.HW
	pl, err := Place(hw, NewParallelBatch(cfg.M), w)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := NewSystem(hw, pl)
	if err != nil {
		b.Fatal(err)
	}
	var buf *TraceBuffer
	if traced {
		buf = sys.EnableTrace(0)
	}
	reqs := w.Requests
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Submit(&reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
		if traced {
			buf.Reset() // keep memory flat; recording cost still measured
		}
	}
}

// benchParams mirrors the experiment harness's scaled workload parameters:
// object population and request lengths scale, the predefined request
// count stays at the paper's 300, and the object-size tail is capped
// relative to the (possibly shrunken) cartridge.
func benchParams(cfg ExperimentConfig) WorkloadParams {
	p := DefaultWorkloadParams()
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
