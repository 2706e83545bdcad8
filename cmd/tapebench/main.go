// Command tapebench regenerates the paper's evaluation: Table 1 and
// Figures 5–9, plus the technology-scaling and robustness studies and the
// parallel-batch design ablation. Profiling hooks (-pprof, -cpuprofile,
// -memprofile, -gostats) expose where harness time and memory go, and
// live telemetry flags (-metrics-addr, -progress) watch a sweep while it
// runs; see docs/OBSERVABILITY.md.
//
// Examples:
//
//	tapebench                      # everything, full paper scale
//	tapebench -experiment fig6     # one exhibit
//	tapebench -quick               # reduced scale (CI-sized)
//	tapebench -experiment fig9 -csv -o fig9.csv
//	tapebench -metrics-addr :9100 -progress 10s
//	tapebench -pprof :6060 -gostats
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -pprof serves the standard profiling endpoints
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"paralleltape"
	"paralleltape/internal/experiments"
	pmetrics "paralleltape/internal/metrics"
	"paralleltape/internal/telemetry"
)

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"which exhibit to regenerate: all, "+strings.Join(experiments.IDs(), ", "))
		quick       = flag.Bool("quick", false, "reduced-scale configuration (fast)")
		seed        = flag.Uint64("seed", 0, "override the experiment seed (0 keeps the default)")
		requests    = flag.Int("requests", 0, "override simulated requests per run (0 keeps the default)")
		workers     = flag.Int("workers", 0, "parallel run workers (0 = GOMAXPROCS)")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		chart       = flag.Bool("chart", false, "append a bandwidth bar chart to each exhibit")
		outPath     = flag.String("o", "", "write output to a file instead of stdout")
		metricsAddr = flag.String("metrics-addr", "",
			"serve live telemetry on this address for the life of the sweep (Prometheus text at /metrics, expvar JSON at /debug/vars, net/http/pprof at /debug/pprof/)")
		progress = flag.Duration("progress", 0, "print a progress line to stderr at this interval (e.g. 10s; 0 disables)")
		faultsOn = flag.Bool("faults", false,
			"inject stochastic faults into every run of the selected exhibit (-mtbf, -timeout; docs/RESILIENCE.md); the chaos exhibit keeps its own per-point profiles")
		mtbf = flag.Float64("mtbf", 40000,
			"per-drive mean time between failures in simulated seconds (with -faults); robots get 10x")
		timeout = flag.Float64("timeout", 0,
			"per-request deadline in simulated seconds (0 = none); timed-out requests report partial results")
		pprofSrv = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) for the life of the run")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		goStats  = flag.Bool("gostats", false, "print Go runtime metrics (GC, heap, scheduler) after the run")
	)
	flag.Parse()
	if err := checkFlags(*progress, *timeout, *mtbf); err != nil {
		fmt.Fprintln(os.Stderr, "tapebench:", err)
		os.Exit(1)
	}

	// Create output files first so an unwritable path fails immediately,
	// not after the sweep completes.
	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tapebench:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	if *pprofSrv != "" {
		go func() {
			if err := http.ListenAndServe(*pprofSrv, nil); err != nil {
				fmt.Fprintln(os.Stderr, "tapebench: pprof server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "tapebench: pprof listening on http://%s/debug/pprof/\n", *pprofSrv)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tapebench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tapebench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	cfg := paralleltape.DefaultExperimentConfig()
	if *quick {
		cfg = paralleltape.QuickExperimentConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *requests != 0 {
		cfg.Requests = *requests
	}
	cfg.Workers = *workers
	if *faultsOn {
		cfg.Faults = &paralleltape.FaultProfile{
			Seed:              cfg.Seed ^ 0xFA17,
			DriveMTBF:         *mtbf,
			DriveRepair:       paralleltape.Exponential{Mean: 600},
			RobotMTBF:         10 * *mtbf,
			RobotRepair:       paralleltape.Exponential{Mean: 300},
			MediaErrorPerRead: 0.002,
		}
	}
	cfg.RequestTimeout = *timeout

	// Live telemetry: one collector shared by every run in the sweep. The
	// experiment runner raises the run/request targets and streams events
	// into it; the server and progress line read concurrently.
	if *metricsAddr != "" || *progress > 0 {
		reg := telemetry.NewRegistry()
		cfg.Telemetry = telemetry.NewCollector(reg)
		if *metricsAddr != "" {
			srv, err := telemetry.Serve(*metricsAddr, reg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tapebench:", err)
				os.Exit(1)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "tapebench: telemetry on http://%s/metrics\n", srv.Addr())
		}
		if *progress > 0 {
			prog := telemetry.StartProgress(telemetry.ProgressOptions{
				Interval: *progress, Collector: cfg.Telemetry, Label: "tapebench",
			})
			defer prog.Stop()
		}
	}

	if err := run(out, *experiment, cfg, *csv, *chart); err != nil {
		fmt.Fprintln(os.Stderr, "tapebench:", err)
		os.Exit(1)
	}
	if *goStats {
		if err := writeRuntimeStats(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "tapebench:", err)
			os.Exit(1)
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tapebench:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tapebench:", err)
			os.Exit(1)
		}
	}
}

// runtimeStatNames are the runtime/metrics samples -gostats reports: the
// memory footprint, GC effort, and scheduler latency of the harness.
var runtimeStatNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
	"/sched/goroutines:goroutines",
	"/cpu/classes/gc/total:cpu-seconds",
}

// writeRuntimeStats samples and prints the selected runtime metrics.
func writeRuntimeStats(w io.Writer) error {
	samples := make([]metrics.Sample, len(runtimeStatNames))
	for i, name := range runtimeStatNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	if _, err := fmt.Fprintln(w, "\nruntime metrics:"); err != nil {
		return err
	}
	for _, s := range samples {
		var val string
		switch s.Value.Kind() {
		case metrics.KindUint64:
			val = fmt.Sprintf("%d", s.Value.Uint64())
		case metrics.KindFloat64:
			val = fmt.Sprintf("%g", s.Value.Float64())
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			val = fmt.Sprintf("p50=%.6gs p99=%.6gs", histQuantile(h, 0.50), histQuantile(h, 0.99))
		default:
			val = "unsupported"
		}
		if _, err := fmt.Fprintf(w, "  %-40s %s\n", s.Name, val); err != nil {
			return err
		}
	}
	return nil
}

// histQuantile approximates a quantile of a runtime/metrics histogram by
// walking bucket counts; it returns the lower bound of the bucket where
// the cumulative count crosses q.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			// Buckets[i] is the lower bound of bucket i.
			if i < len(h.Buckets) {
				return h.Buckets[i]
			}
			return h.Buckets[len(h.Buckets)-1]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// checkFlags rejects flag values a sweep would otherwise ignore, or reject
// only after clustering. -timeout and -mtbf take the bounds of
// tapesys.Options.Validate and faults.Profile.Validate, with or without
// -faults.
func checkFlags(progress time.Duration, timeout, mtbf float64) error {
	if progress < 0 {
		return fmt.Errorf("-progress must not be negative, got %v", progress)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"timeout", timeout}, {"mtbf", mtbf}} {
		if !(f.v >= 0) {
			return fmt.Errorf("-%s must be a non-negative number of seconds, got %v", f.name, f.v)
		}
	}
	return nil
}

// run regenerates the selected exhibits, rendering each to out.
func run(out io.Writer, experiment string, cfg paralleltape.ExperimentConfig, csv, chart bool) error {
	emit := func(rep *paralleltape.ExperimentReport) error {
		if err := rep.Err(); err != nil {
			return err
		}
		if csv {
			return rep.Table.RenderCSV(out)
		}
		if err := rep.Table.Render(out); err != nil {
			return err
		}
		if chart && len(rep.Rows) > 0 {
			var labels []string
			var values []float64
			for _, r := range rep.Rows {
				label := r.Label
				if r.Scheme != "" && r.Scheme != label {
					label += " " + r.Scheme
				}
				labels = append(labels, label)
				values = append(values, r.Stats.MeanBandwidth/1e6)
			}
			fmt.Fprintln(out)
			if err := pmetrics.BarChart(out, "effective bandwidth (MB/s)", labels, values, 50); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintln(out)
		return err
	}

	start := time.Now()
	if experiment == "all" {
		all, err := paralleltape.RunAllExperiments(cfg)
		for _, rep := range all {
			if e := emit(rep); e != nil {
				return e
			}
		}
		if err != nil {
			return err
		}
	} else {
		rep, err := paralleltape.RunExperiment(experiment, cfg)
		if err != nil {
			return err
		}
		if err := emit(rep); err != nil {
			return err
		}
	}
	if !csv {
		fmt.Fprintf(out, "completed in %s (seed %d, %d requests/run, scale %.2f)\n",
			time.Since(start).Round(time.Millisecond), cfg.Seed, cfg.Requests, cfg.Scale)
	}
	return nil
}
