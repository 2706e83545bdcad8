// Command perfbench is the repository benchmark. It drives the simulator
// only through its packages' exported functions, runs one of four
// workloads for a fixed time, checks every simulated result against
// oracles taken from outside the simulator, and prints each metric by
// name with its unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload paper-run --seed 20060815 --seconds 15 --trace 0
//
// # Workloads
//
// Every input is generated from --seed (default 20060815; claims are
// confirmed on the held-out seed 4242). The single-run workloads are
// closed loops with one client on Table 1 hardware and the §6 generator.
// A run draws five request streams of 200 requests (stream k from seed+k,
// stream 0 being tapesim's) and replays them on a reset system, so
// simulated results repeat exactly for a seed while host timings gather
// samples.
//
//   - paper-run: parallel-batch placement with m = 4, one engine, a Submit
//     loop (tapesim's default run).
//   - degraded-stream: object-probability placement, stochastic faults
//     (drive MTBF 10,000 s), a 1,000 s request timeout, Options.Shards = 2
//     and System.SubmitStream.
//   - observed-run: object-probability placement and a Submit loop with
//     every tapesim observability sink attached through one trace.Tee,
//     then the run report, phase breakdown and slowest-request analysis.
//   - exhibit-sweep: experiments.All at the experiments.Quick scale on
//     GOMAXPROCS workers (tapebench).
//
// # End-to-end metrics (--trace 0)
//
// Units s, us, ms and ns are host time; sim_s is simulated time. Each
// metric is reported on every workload:
//
//   - setup_s: median over several set-ups of generate, place (with
//     clustering), Validate and build the System. exhibit-sweep sets up
//     the same paper configuration at the Quick scale, the set-up each
//     of its parallel-batch runs repeats.
//   - requests_per_s: simulated requests completed per host second of the
//     request phase (the sweep: all its runs' requests per sweep second).
//   - request_us_p50, request_us_p99: host time per request, the gap
//     between completions (for a Submit loop, the Submit call). Each of
//     the run's 1,000 distinct requests is timed over every replay and
//     summarized by its median; the quantiles run over the requests. On
//     exhibit-sweep, where requests are not observable, it is each
//     sweep's host time × workers ÷ requests, and the quantiles run over
//     the sweeps.
//   - sweep_s: wall time of the whole batch job after set-up: every
//     exhibit for exhibit-sweep (mean over four seeds from --seed); one
//     batch and its analysis otherwise (the mean over the replays).
//   - analysis_s: time from the last result to the finished output the
//     workload's CLI prints: tapesim's summary and utilization tables, the
//     observed run's report, breakdown and slowest-N, tapebench's tables
//     (the mean over the replays). A sweep's tables render in about a
//     millisecond, too short to outlast the host's interference, so on
//     exhibit-sweep it is the fastest of the run's renderings (see
//     runSweep).
//   - peak_rss_mb: peak resident memory of the process.
//   - sim_bandwidth_mbps, sim_response_s: the §6 mean effective bandwidth
//     and response time (the sweep: means over its rows).
//   - sim_availability_pct: delivered ÷ requested bytes.
//
// On a shared machine the hypervisor takes CPU away in waves that a run
// cannot outlast, and every host-time figure slows with it. The run
// therefore counts the CPU time stolen from the machine (/proc/stat, in
// 10 ms ticks) and takes the stolen share of the CPU time the process
// asked for out of each set-up, each sweep and the single runs' timed
// loop as a whole (ranShare, stats.go). Per-request times are medians,
// which leave out the few replays of a request that lost time.
//
// The error rate is the JSON line's failed ÷ attempted; it is printed as
// error_rate and is 0 whenever the run is correct. Each run also prints
// its environment (GOMAXPROCS, CPU count, Go version, commit, a digest of
// the Go sources), a digest of every simulated result, and the CPU time
// the hypervisor stole from the machine while it ran.
//
// # Traced run (--trace 1)
//
// A separate run times, with the benchmark's own spans, every call it
// makes into a layer, and reports the per-layer metrics listed in
// defs.go; see traced.go. Spans are written to --spans-out.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

const (
	defaultSeed = 20060815
	// heldOutSeed is kept out of tuning; a claim measured on the default
	// seed is confirmed on it.
	heldOutSeed = 4242
)

// workloads lists the workload names in BENCHMARK.json order.
var workloads = []string{"paper-run", "degraded-stream", "exhibit-sweep", "observed-run"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fl.Uint64("seed", defaultSeed, "seed every input is generated from")
	secs := fl.Int("seconds", 15, "how long the run measures")
	traced := fl.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	spansOut := fl.String("spans-out", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *name) || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in {%s}, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloads, ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d (default %d, held-out %d) seconds=%d trace=%d\n",
		*name, *seed, defaultSeed, heldOutSeed, *secs, *traced)
	fmt.Fprintf(stdout, "env: %s\n", stamp())

	budget := time.Duration(*secs) * time.Second
	steal0, wall0 := hostSteal(), time.Now()
	var res *result
	var err error
	switch {
	case *name == "exhibit-sweep" && *traced == 1:
		res, err = traceSweep(*seed, budget)
	case *name == "exhibit-sweep":
		res, err = runSweep(*seed, budget)
	case *traced == 1:
		res, err = traceSingle(singleSpecFor(*name, *seed), *seed, budget)
	default:
		res, err = runSingle(singleSpecFor(*name, *seed), *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if steal0 >= 0 {
		res.note("host CPU stolen by the hypervisor during the run: %.2f s over %.1f s of wall time on %d CPUs",
			hostSteal()-steal0, time.Since(wall0).Seconds(), runtime.NumCPU())
	}
	if res.spans != nil {
		path := filepath.Join(*spansOut, *name+".jsonl")
		if err := res.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(res.spans.spans), path)
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer()
	}
	return res.print(stdout, defs)
}

// result is what one run measured and checked.
type result struct {
	values    map[string]float64
	notes     []string
	attempted int
	failed    int
	errs      []error
	digest    string
	spans     *tracer // the traced run's spans, written out at the end
}

func newResult() *result { return &result{values: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finish copies the checks' outcome into the result.
func (r *result) finish(c *checker) {
	r.attempted, r.failed, r.errs, r.digest = c.attempted, c.failed, c.errs, c.digest()
}

// print writes the human-readable lines and the final JSON line. It
// returns 1 if a metric in defs was not measured, or is not finite.
func (r *result) print(w io.Writer, defs []metricDef) int {
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(w, "perfbench: metric %s not measured (%v)\n", d.Name, v)
			return 1
		}
		fmt.Fprintf(w, "metric %-34s %16.6f %s\n", d.Name, v, d.Unit)
		out[d.Name] = value{v, d.Unit}
	}
	fmt.Fprintf(w, "digest sha256=%s\n", r.digest)
	for _, err := range r.errs {
		fmt.Fprintf(w, "FAILED: %v\n", err)
	}
	fmt.Fprintf(w, "checks: attempted=%d failed=%d error_rate=%g\n",
		r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out})
	if err != nil {
		fmt.Fprintf(w, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	return 0
}

// stamp describes the environment a result was measured in: GOMAXPROCS,
// the CPU count, the Go version, the commit (when the build recorded one)
// and a digest of the module's Go sources, which identifies the code even
// in a checkout without version control.
func stamp() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+dirty"
				}
			}
		}
	}
	return fmt.Sprintf("GOMAXPROCS=%d nproc=%d go=%s commit=%s source_sha256=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit, sourceDigest("."))
}

// sourceDigest hashes the path and content of every go.mod and .go file
// under root, skipping hidden directories (build output, VCS metadata).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unavailable"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
