// Command tapesim runs a single parallel-tape-storage simulation: it
// generates (or loads) a workload, places it with a chosen scheme, submits
// a stream of requests, and prints the paper's §6 metrics. Opt-in
// observability flags export a structured event trace (-trace) and a
// per-component run report (-report), serve live telemetry while the run
// executes (-metrics-addr), and print periodic progress (-progress); all
// formats are documented in docs/OBSERVABILITY.md.
//
// Examples:
//
//	tapesim -scheme parallel-batch -m 4 -requests 200
//	tapesim -scheme object-probability -alpha 0.7 -libraries 2
//	tapesim -scheme cluster-probability -workload workload.json -csv
//	tapesim -requests 50 -trace run.jsonl -report -
//	tapesim -requests 2000 -metrics-addr :9100 -progress 5s
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"paralleltape"
	"paralleltape/internal/cluster"
	"paralleltape/internal/dist"
	"paralleltape/internal/faults"
	"paralleltape/internal/metrics"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/spans"
	"paralleltape/internal/tapesys"
	"paralleltape/internal/telemetry"
	"paralleltape/internal/trace"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

// options bundles every tapesim flag; tests drive run() through it.
type options struct {
	scheme      string
	m           int
	epochs      int
	requests    int
	seed        uint64
	alpha       float64
	objects     int
	nRequests   int
	libraries   int
	drives      int
	tapes       int
	capacity    string
	rate        string
	target      string
	workload    string        // JSON workload trace to load instead of generating
	tracePath   string        // structured event trace export (.jsonl or .csv)
	report      string        // run report destination ("-" for stdout)
	metricsAddr string        // live telemetry HTTP address ("" = off)
	progress    time.Duration // progress line interval (0 = off)
	csv         bool
	verbose     bool
	util        bool
	estimate    bool
	describe    bool
	events      int
	explain     int // print the N slowest requests' causal span trees

	// Fault-injection knobs (docs/RESILIENCE.md).
	faults     bool
	mtbf       float64
	repair     float64
	mediaError float64
	faultSeed  uint64
	timeout    float64
	backoff    float64

	// Test hooks (not flags): notifyServe receives the bound telemetry
	// address once the server is up; midRun fires once after half the
	// requests have been submitted. Both are nil outside tests.
	notifyServe func(addr string)
	midRun      func()
}

func main() {
	var o options
	bindFlags(flag.CommandLine, &o)
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "tapesim:", err)
		os.Exit(1)
	}
}

// bindFlags registers every tapesim flag on fs, storing the values in o.
func bindFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.scheme, "scheme", "parallel-batch",
		"placement scheme: parallel-batch, object-probability, cluster-probability, round-robin, online")
	fs.IntVar(&o.m, "m", 4, "switch drives per library (parallel-batch/online)")
	fs.IntVar(&o.epochs, "epochs", 4, "arrival waves for the online scheme")
	fs.IntVar(&o.requests, "requests", 200, "number of simulated request submissions")
	fs.Uint64Var(&o.seed, "seed", 20060815, "master random seed")
	fs.Float64Var(&o.alpha, "alpha", 0.3, "Zipf request popularity skew")
	fs.IntVar(&o.objects, "objects", 30000, "object population")
	fs.IntVar(&o.nRequests, "predefined", 300, "predefined request count")
	fs.IntVar(&o.libraries, "libraries", 3, "number of tape libraries")
	fs.IntVar(&o.drives, "drives", 8, "drives per library")
	fs.IntVar(&o.tapes, "tapes", 80, "tapes per library")
	fs.StringVar(&o.capacity, "capacity", "400GB", "cartridge capacity")
	fs.StringVar(&o.rate, "rate", "80MB", "native transfer rate (bytes/s)")
	fs.StringVar(&o.target, "request-size", "", "rescale object sizes to this mean request size (e.g. 213GB)")
	fs.StringVar(&o.workload, "workload", "", "load workload from a JSON trace instead of generating")
	fs.StringVar(&o.tracePath, "trace", "", "write the structured event trace to this file (JSONL; .csv extension switches to CSV)")
	fs.StringVar(&o.report, "report", "", "write the per-component run report to this file (text; .csv extension switches to CSV; - for stdout)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live telemetry on this address for the life of the run (Prometheus text at /metrics, expvar JSON at /debug/vars, net/http/pprof at /debug/pprof/)")
	fs.DurationVar(&o.progress, "progress", 0, "print a progress line to stderr at this interval (e.g. 5s; 0 disables)")
	fs.BoolVar(&o.csv, "csv", false, "emit per-request metrics as CSV")
	fs.BoolVar(&o.verbose, "v", false, "print per-request lines")
	fs.BoolVar(&o.util, "utilization", false, "print drive/robot utilization after the run")
	fs.BoolVar(&o.describe, "describe", false, "print placement diagnostics before simulating")
	fs.BoolVar(&o.estimate, "estimate", false, "print the analytic (no-simulation) estimate alongside")
	fs.IntVar(&o.events, "events", 0, "print the first N simulator events")
	fs.IntVar(&o.explain, "explain", 0,
		"after the run, print the N slowest requests with their critical path and per-phase latency attribution (reconstructed from the event trace; same analysis as tapetrace slowest)")
	fs.BoolVar(&o.faults, "faults", false,
		"enable stochastic fault injection: drive/robot failures from -mtbf, media errors from -media-error (docs/RESILIENCE.md)")
	fs.Float64Var(&o.mtbf, "mtbf", 40000,
		"per-drive mean time between failures in simulated seconds; robots get 10x (with -faults)")
	fs.Float64Var(&o.repair, "repair", 600,
		"mean drive repair time in simulated seconds; robots repair in half (with -faults)")
	fs.Float64Var(&o.mediaError, "media-error", 0.002,
		"permanent media-error probability per tape-group read (with -faults)")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 0,
		"fault-injection seed (0 = derive from -seed); same seed + config = byte-identical degraded run")
	fs.Float64Var(&o.timeout, "timeout", 0,
		"per-request timeout in simulated seconds (0 = none); timed-out requests report partial results")
	fs.Float64Var(&o.backoff, "retry-backoff", 30,
		"delay in simulated seconds before an interrupted operation is retried on a surviving drive")
}

// isCSVPath reports whether an output path selects the CSV format: a
// ".csv" extension, compared case-insensitively (".CSV" works too).
func isCSVPath(path string) bool {
	return strings.EqualFold(filepath.Ext(path), ".csv")
}

func run(o options) error {
	for _, f := range []struct {
		name   string
		n, min int
	}{
		{"requests", o.requests, 0}, {"events", o.events, 0}, {"explain", o.explain, 0},
		// placement reads a zero M or Epochs as its default of 4, so an
		// explicit 0 would silently run another value.
		{"m", o.m, 1}, {"epochs", o.epochs, 1},
	} {
		if f.n < f.min {
			return fmt.Errorf("-%s must be at least %d, got %d", f.name, f.min, f.n)
		}
	}
	if o.progress < 0 {
		return fmt.Errorf("-progress must not be negative, got %v", o.progress)
	}
	// A negative repair time moves the injector's timelines backwards and
	// the run never ends; a zero one is no repair time either.
	if !(o.repair > 0) || math.IsInf(o.repair, 1) {
		return fmt.Errorf("-repair must be a positive, finite number of seconds, got %v", o.repair)
	}
	// The bounds of tapesys.Options.Validate and faults.Profile.Validate,
	// checked with or without -faults so a bad value fails here rather
	// than after the placement (or not at all).
	for _, f := range []struct {
		name string
		v    float64
	}{{"timeout", o.timeout}, {"retry-backoff", o.backoff}, {"mtbf", o.mtbf}} {
		if !(f.v >= 0) {
			return fmt.Errorf("-%s must be a non-negative number of seconds, got %v", f.name, f.v)
		}
	}
	if !(o.mediaError >= 0 && o.mediaError <= 1) {
		return fmt.Errorf("-media-error must be a probability in [0,1], got %v", o.mediaError)
	}

	// Create every output destination first, so an unwritable or
	// uncreatable path fails in milliseconds at flag-handling time rather
	// than after the simulation completes.
	var traceSink interface {
		trace.Recorder
		Close() error
	}
	if o.tracePath != "" {
		traceFile, err := os.Create(o.tracePath)
		if err != nil {
			return err
		}
		defer traceFile.Close()
		if isCSVPath(o.tracePath) {
			traceSink = trace.NewCSVWriter(traceFile)
		} else {
			traceSink = trace.NewJSONLWriter(traceFile)
		}
	}
	var reportOut io.Writer
	reportCSV := false
	if o.report != "" {
		if o.report == "-" {
			reportOut = os.Stdout
		} else {
			reportFile, err := os.Create(o.report)
			if err != nil {
				return err
			}
			defer reportFile.Close()
			reportOut = reportFile
			reportCSV = isCSVPath(o.report)
		}
	}

	hw := paralleltape.DefaultHardware()
	hw.Libraries = o.libraries
	hw.DrivesPerLib = o.drives
	hw.TapesPerLib = o.tapes
	var err error
	if hw.Capacity, err = units.ParseBytes(o.capacity); err != nil {
		return err
	}
	rateBytes, err := units.ParseBytes(o.rate)
	if err != nil {
		return err
	}
	hw.TransferRate = float64(rateBytes)
	if err := hw.Validate(); err != nil {
		return err
	}

	var w *model.Workload
	if o.workload != "" {
		f, err := os.Open(o.workload)
		if err != nil {
			return err
		}
		defer f.Close()
		if w, err = model.ReadJSON(f); err != nil {
			return err
		}
	} else {
		p := paralleltape.DefaultWorkloadParams()
		p.NumObjects = o.objects
		p.NumRequests = o.nRequests
		p.Alpha = o.alpha
		if w, err = paralleltape.GenerateWorkload(p, o.seed); err != nil {
			return err
		}
	}
	if o.target != "" {
		t, err := units.ParseBytes(o.target)
		if err != nil {
			return err
		}
		if _, err := paralleltape.TargetMeanRequestBytes(w, float64(t)); err != nil {
			return err
		}
	}

	var scheme placement.Scheme
	switch o.scheme {
	case "parallel-batch":
		scheme = placement.ParallelBatch{M: o.m}
	case "object-probability":
		scheme = placement.ObjectProbability{}
	case "cluster-probability":
		scheme = placement.ClusterProbability{}
	case "round-robin":
		scheme = placement.RoundRobin{}
	case "online":
		scheme = placement.Online{Epochs: o.epochs, M: o.m}
	default:
		return fmt.Errorf("unknown scheme %q", o.scheme)
	}

	stats := w.ComputeStats()
	fmt.Printf("workload: %d objects (%s total), %d predefined requests, mean request %s\n",
		stats.NumObjects, units.FormatBytesSI(stats.TotalBytes), stats.NumRequests,
		units.FormatBytesSI(int64(stats.MeanRequestBytes)))
	fmt.Printf("system:   %d libraries x %d drives x %d tapes of %s at %s\n",
		hw.Libraries, hw.DrivesPerLib, hw.TapesPerLib,
		units.FormatBytesSI(hw.Capacity), units.FormatRate(hw.TransferRate))

	pl, err := paralleltape.Place(hw, scheme, w)
	if err != nil {
		return err
	}
	// tapesim places once, so the clustering scratch (about 225 MB at
	// paper scale) need not outlive the placement.
	cluster.ReleaseScratch()
	// The run allocates too little after placing to trigger a collection,
	// so return the released scratch to the OS now rather than keep it
	// resident through the simulation and report.
	debug.FreeOSMemory()
	fmt.Printf("placement: %s using %d tapes\n\n", pl.Scheme, pl.TapesUsed)
	if o.describe {
		d, err := placement.Describe(pl, w, hw)
		if err != nil {
			return err
		}
		if err := d.Write(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	opts := tapesys.Options{RequestTimeout: o.timeout, RetryBackoff: o.backoff}
	if o.faults {
		fseed := o.faultSeed
		if fseed == 0 {
			fseed = o.seed ^ 0xFA17
		}
		opts.Faults = &faults.Profile{
			Seed:              fseed,
			DriveMTBF:         o.mtbf,
			DriveRepair:       dist.Exponential{Mean: o.repair},
			RobotMTBF:         10 * o.mtbf,
			RobotRepair:       dist.Exponential{Mean: o.repair / 2},
			MediaErrorPerRead: o.mediaError,
		}
		fmt.Printf("faults:   drive MTBF %.0fs (repair %.0fs), robot MTBF %.0fs, media error %.2g/read, seed %d\n",
			o.mtbf, o.repair, 10*o.mtbf, o.mediaError, fseed)
	}
	sys, err := tapesys.NewWithOptions(hw, pl, opts)
	if err != nil {
		return err
	}

	// Assemble the recorder stack: a streaming exporter for -trace, an
	// in-memory buffer for -report / -events, and the live-telemetry
	// collector for -metrics-addr / -progress. One Tee feeds them all —
	// the collector consumes the same event stream as the exporters, so
	// enabling telemetry cannot change what the exporters see.
	var recs trace.Tee
	if traceSink != nil {
		recs = append(recs, traceSink)
	}
	var buf *trace.Buffer
	if o.report != "" || o.events > 0 || o.explain > 0 {
		limit := 0
		if o.report == "" && o.explain == 0 {
			limit = o.events
		}
		buf = trace.NewBuffer(limit)
		recs = append(recs, buf)
	}
	if o.metricsAddr != "" || o.progress > 0 {
		reg := telemetry.NewRegistry()
		col := telemetry.NewCollector(reg)
		col.RequestsTarget.Set(int64(o.requests))
		recs = append(recs, col)
		if o.metricsAddr != "" {
			srv, err := telemetry.Serve(o.metricsAddr, reg)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "tapesim: telemetry on http://%s/metrics\n", srv.Addr())
			if o.notifyServe != nil {
				o.notifyServe(srv.Addr())
			}
		}
		if o.progress > 0 {
			prog := telemetry.StartProgress(telemetry.ProgressOptions{
				Interval: o.progress, Collector: col, Label: "tapesim",
			})
			defer prog.Stop()
		}
	}
	if len(recs) > 0 {
		sys.SetRecorder(recs)
	}

	stream, err := workload.NewRequestStream(w, rng.New(o.seed^0xDEADBEEF))
	if err != nil {
		return err
	}
	if o.csv {
		fmt.Println("request,bytes,response_s,switch_s,seek_s,transfer_s,bandwidth_MBps,switches,tapes,drives")
	}
	ms := make([]tapesys.RequestMetrics, 0, o.requests)
	for i := 0; i < o.requests; i++ {
		if o.midRun != nil && i == o.requests/2 {
			o.midRun()
		}
		mtr, err := sys.Submit(stream.Next())
		if err != nil {
			return err
		}
		ms = append(ms, mtr)
		if o.csv {
			fmt.Printf("%d,%d,%.2f,%.2f,%.2f,%.2f,%.2f,%d,%d,%d\n",
				mtr.Request, mtr.Bytes, mtr.Response, mtr.Switch, mtr.Seek, mtr.Transfer,
				mtr.Bandwidth()/1e6, mtr.Switches, mtr.TapesTouched, mtr.DrivesUsed)
		} else if o.verbose {
			fmt.Printf("req %3d: %8s in %9s  (bw %s, %d switches, %d tapes, %d drives)\n",
				mtr.Request, units.FormatBytesSI(mtr.Bytes), units.FormatSeconds(mtr.Response),
				units.FormatRate(mtr.Bandwidth()), mtr.Switches, mtr.TapesTouched, mtr.DrivesUsed)
		}
	}
	agg := metrics.AggregateSession(ms)
	if !o.csv {
		fmt.Println()
		fmt.Printf("requests simulated        %d (%s transferred)\n", agg.Requests, units.FormatBytesSI(agg.Bytes))
		fmt.Printf("effective bandwidth       %s (aggregate %s)\n",
			units.FormatRate(agg.MeanBandwidth), units.FormatRate(agg.AggBandwidth))
		fmt.Printf("avg response time         %s\n", units.FormatSeconds(agg.MeanResponse))
		fmt.Printf("avg tape switch time      %s\n", units.FormatSeconds(agg.MeanSwitch))
		fmt.Printf("avg data seek time        %s\n", units.FormatSeconds(agg.MeanSeek))
		fmt.Printf("avg data transfer time    %s\n", units.FormatSeconds(agg.MeanTransfer))
		fmt.Printf("avg switches per request  %.2f\n", agg.MeanSwitches)
		fmt.Printf("avg tapes per request     %.2f\n", agg.MeanTapes)
		fmt.Printf("avg drives per request    %.2f\n", agg.MeanDrivesUsed)
		fmt.Printf("p95 response time         %s\n", units.FormatSeconds(agg.Response.P95))
		if o.faults || o.timeout > 0 {
			fmt.Printf("availability              %.2f%% (%s delivered)\n",
				100*agg.Availability, units.FormatBytesSI(agg.BytesServed))
			fmt.Printf("goodput                   %s\n", units.FormatRate(agg.MeanGoodput))
			fmt.Printf("retries                   %.2f/request (%d groups failed, %d media errors)\n",
				agg.MeanRetries, agg.FailedGroups, agg.MediaErrors)
			fmt.Printf("requests timed out        %d\n", agg.TimedOut)
		}
	}
	if o.estimate {
		mod, err := paralleltape.NewAnalyticModel(hw, pl)
		if err != nil {
			return err
		}
		est, err := mod.EstimateSession(w)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Printf("analytic estimate (no simulation, stationary mounts):\n")
		fmt.Printf("  response %s  switch %s  seek %s  transfer %s  bandwidth %s\n",
			units.FormatSeconds(est.Response), units.FormatSeconds(est.Switch),
			units.FormatSeconds(est.Seek), units.FormatSeconds(est.Transfer),
			units.FormatRate(est.Bandwidth()))
		fmt.Printf("  hardware ceiling %s\n", units.FormatRate(paralleltape.IdealBandwidth(hw)))
	}
	if o.util {
		fmt.Println()
		if err := sys.WriteUtilization(os.Stdout); err != nil {
			return err
		}
	}
	if o.events > 0 && buf != nil {
		n := o.events
		if n > len(buf.Events) {
			n = len(buf.Events)
		}
		fmt.Println()
		if err := trace.WriteText(os.Stdout, buf.Events[:n]); err != nil {
			return err
		}
	}
	if traceSink != nil {
		if err := traceSink.Close(); err != nil {
			return err
		}
	}
	if o.explain > 0 && buf != nil {
		sess, err := spans.Build(buf.Events)
		if err != nil {
			return fmt.Errorf("explain: %v", err)
		}
		fmt.Printf("\nslowest %d requests (critical-path attribution):\n\n", o.explain)
		if err := spans.WriteSlowest(os.Stdout, sess, o.explain); err != nil {
			return err
		}
	}
	if o.report != "" && buf != nil {
		tl := metrics.BuildTimeline(buf.Events)
		if o.report == "-" {
			fmt.Println()
		}
		if reportCSV {
			return tl.WriteCSV(reportOut)
		}
		return tl.WriteText(reportOut)
	}
	return nil
}
