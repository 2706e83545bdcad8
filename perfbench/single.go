package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"paralleltape/internal/cluster"
	"paralleltape/internal/dist"
	"paralleltape/internal/faults"
	"paralleltape/internal/metrics"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/spans"
	"paralleltape/internal/tape"
	"paralleltape/internal/tapesys"
	"paralleltape/internal/telemetry"
	"paralleltape/internal/trace"
	"paralleltape/internal/workload"
)

// batchRequests is the length of one request stream, a batch: the paper's
// §6 session length and tapesim's default. A run replays its streams on a
// reset system as often as its time allows, so simulated results depend
// only on the seed while host timings gather many samples.
const batchRequests = 200

// Seed derivations. They match tapesim's, so `tapesim -seed S` with the
// same flags simulates the same requests and faults as seed S here.
const (
	requestSeedMask = 0xDEADBEEF
	faultSeedMask   = 0xFA17
)

// singleSpec configures one single-run workload: the hardware, the
// generator parameters, the placement scheme, the simulator options, and
// how requests are fed and observed.
type singleSpec struct {
	hw     tape.Hardware
	params workload.Params
	scheme placement.Scheme
	opts   tapesys.Options
	// stream feeds requests through System.SubmitStream instead of a
	// Submit loop.
	stream bool
	// observed attaches every tapesim observability sink and runs the
	// report, breakdown and slowest-N analysis after each batch.
	observed bool
	// healthy says no faults or timeouts are configured, so the healthy
	// oracles apply.
	healthy bool
	// setups is how many times an untraced run sets the workload up (the
	// median is reported); a full-scale clustering takes seconds.
	setups int
}

// singleSpecFor returns the named single-run workload at seed.
func singleSpecFor(name string, seed uint64) singleSpec {
	base := singleSpec{
		hw:      tape.DefaultHardware(),
		params:  workload.Defaults(),
		scheme:  placement.ObjectProbability{},
		healthy: true,
		setups:  7,
	}
	switch name {
	case "paper-run":
		base.scheme = placement.ParallelBatch{M: 4}
		base.setups = 3
	case "degraded-stream":
		// The chaos exhibit's middle drive MTBF with tapesim's default
		// repair, robot and media-error settings; the timeout cuts off the
		// slowest one or two percent of requests.
		const mtbf, repair = 10000, 600
		base.opts = tapesys.Options{
			Shards:         2,
			RequestTimeout: 1000,
			RetryBackoff:   30,
			Faults: &faults.Profile{
				Seed:              seed ^ faultSeedMask,
				DriveMTBF:         mtbf,
				DriveRepair:       dist.Exponential{Mean: repair},
				RobotMTBF:         10 * mtbf,
				RobotRepair:       dist.Exponential{Mean: repair / 2},
				MediaErrorPerRead: 0.002,
			},
		}
		base.stream = true
		base.healthy = false
	case "observed-run":
		base.observed = true
	}
	return base
}

// streamsPerRun is how many independent request streams of batchRequests
// a run replays, each on a freshly reset system (the paper's repeated
// sessions). Stream k is drawn with seed (seed+k)^requestSeedMask, as the
// experiments runner draws its seeds, so stream 0 is tapesim's.
const streamsPerRun = 5

// settleBytes is the allocation volume above which a batch is followed by
// a collection, so that each batch starts from a collected heap as a fresh
// process would. Batches that allocate less skip it: collecting a
// full-scale placement costs more than such a batch.
const settleBytes = 1 << 20

// bench is a set-up single-run workload.
type bench struct {
	spec    singleSpec
	w       *model.Workload
	pl      *placement.Result
	sys     *tapesys.System
	streams [][]*model.Request
	wants   [][]int64 // each request's payload, summed from the workload

	// The stream the next batch replays.
	cur  int
	reqs []*model.Request
	want []int64

	// Traced set-ups also record what clustering produced.
	clusters       int
	clusterAllocMB float64

	// Per-batch scratch: host time per request and the results.
	lat       []time.Duration
	out       []tapesys.RequestMetrics
	allocMark float64
}

// setup generates the workload, places it, validates the placement and
// builds the system. With a tracer each step is a span, and clustering is
// timed on its own by handing Place a precomputed result made with the
// configuration Place would use.
func setup(spec singleSpec, seed uint64, tr *tracer) (*bench, error) {
	step := func(name string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		return tr.timed(name, fn)
	}
	b := &bench{spec: spec}
	err := step("workload.generate", func() (err error) {
		b.w, err = workload.Generate(spec.params, rng.New(seed))
		return err
	})
	if err != nil {
		return nil, err
	}
	scheme := spec.scheme
	if pb, ok := scheme.(placement.ParallelBatch); ok && tr != nil && pb.Precomputed == nil {
		cfg := pb.Clustering
		cfg.Parallel = cfg.Parallel || pb.Parallel
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := step("cluster.run", func() (err error) {
			pb.Precomputed, err = cluster.Run(b.w, cfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		b.clusters = len(pb.Precomputed.Clusters)
		b.clusterAllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		scheme = pb
	}
	if err := step("placement.place", func() (err error) {
		b.pl, err = scheme.Place(b.w, spec.hw)
		return err
	}); err != nil {
		return nil, err
	}
	if err := step("placement.validate", func() error { return b.pl.Validate(b.w, spec.hw) }); err != nil {
		return nil, err
	}
	if err := step("tapesys.new", func() (err error) {
		b.sys, err = tapesys.NewWithOptions(spec.hw, b.pl, spec.opts)
		return err
	}); err != nil {
		return nil, err
	}
	for k := 0; k < streamsPerRun; k++ {
		stream, err := workload.NewRequestStream(b.w, rng.New((seed+uint64(k))^requestSeedMask))
		if err != nil {
			b.close()
			return nil, err
		}
		reqs := stream.Draw(batchRequests)
		want := make([]int64, len(reqs))
		for i, r := range reqs {
			want[i] = requestBytes(b.w, r)
		}
		b.streams = append(b.streams, reqs)
		b.wants = append(b.wants, want)
	}
	b.use(0)
	b.lat = make([]time.Duration, batchRequests)
	b.out = make([]tapesys.RequestMetrics, batchRequests)
	return b, nil
}

func (b *bench) close() { _ = b.sys.Close() }

// use points the next batch at stream k.
func (b *bench) use(k int) { b.cur, b.reqs, b.want = k, b.streams[k], b.wants[k] }

// run replays the current stream on sys from its current state, recording
// each request's result and host time: the gap since the previous
// completion, which for a Submit loop is the Submit call. It returns the
// request phase: first submission to last completion.
func (b *bench) run(sys *tapesys.System, stream bool) (time.Duration, error) {
	start := time.Now()
	prev := start
	if stream {
		// The pipeline asks for request k+1 before request k completes, so
		// submissions and completions keep separate counters.
		next, done := 0, 0
		err := sys.SubmitStream(
			func() *model.Request {
				if next == len(b.reqs) {
					return nil
				}
				next++
				return b.reqs[next-1]
			},
			func(m tapesys.RequestMetrics) error {
				now := time.Now()
				b.lat[done] = now.Sub(prev)
				b.out[done] = m
				done++
				prev = now
				return nil
			})
		return prev.Sub(start), err
	}
	for i, r := range b.reqs {
		m, err := sys.Submit(r)
		if err != nil {
			return 0, err
		}
		now := time.Now()
		b.lat[i] = now.Sub(prev)
		b.out[i] = m
		prev = now
	}
	return prev.Sub(start), nil
}

// settle collects the heap if the previous batch allocated more than
// settleBytes.
func (b *bench) settle() {
	if heapAllocs()-b.allocMark > settleBytes {
		runtime.GC()
	}
	b.allocMark = heapAllocs()
}

// sinks is tapesim's full observability stack: a JSONL exporter, an
// in-memory buffer for the report and span analysis, and a live-telemetry
// collector, fed through one Tee.
type sinks struct {
	jsonl *trace.JSONLWriter
	bytes countingDiscard
	buf   *trace.Buffer
	col   *telemetry.Collector
}

// countingDiscard is an io.Writer that drops what it is given and counts
// the bytes.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// attach installs a fresh set of sinks on sys.
func attach(sys *tapesys.System) *sinks {
	sk := &sinks{buf: trace.NewBuffer(0), col: telemetry.NewCollector(telemetry.NewRegistry())}
	sk.jsonl = trace.NewJSONLWriter(&sk.bytes)
	sys.SetRecorder(trace.Tee{sk.jsonl, sk.buf, sk.col})
	return sk
}

// batch replays stream k: it settles the heap, resets the system,
// attaches the sinks of an observed workload, and runs the requests.
func (b *bench) batch(k int) (*sinks, time.Duration, error) {
	b.use(k)
	b.settle()
	if err := b.sys.Reset(b.pl); err != nil {
		return nil, 0, err
	}
	var sk *sinks
	if b.spec.observed {
		sk = attach(b.sys)
	}
	phase, err := b.run(b.sys, b.spec.stream)
	return sk, phase, err
}

// analyze produces what the workload's CLI prints once the last request
// completes: the session summary and drive/robot utilization, or for an
// observed run the flushed trace, the run report, the phase breakdown and
// the slowest requests. A tracer, if given, gets one span per layer.
func (b *bench) analyze(sk *sinks, tr *tracer) error {
	step := func(name string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		return tr.timed(name, fn)
	}
	var agg metrics.SessionStats
	_ = step("metrics.aggregate", func() error {
		agg = metrics.AggregateSession(b.out)
		return nil
	})
	writeSummary(io.Discard, agg)
	if sk == nil {
		return b.sys.WriteUtilization(io.Discard)
	}
	if err := step("trace.flush", sk.jsonl.Close); err != nil {
		return err
	}
	if err := step("metrics.timeline", func() error {
		return metrics.BuildTimeline(sk.buf.Events).WriteText(io.Discard)
	}); err != nil {
		return err
	}
	var sess *spans.Session
	if err := step("spans.build", func() (err error) {
		sess, err = spans.Build(sk.buf.Events)
		return err
	}); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := step("spans.aggregate", func() error {
		return spans.WriteBreakdown(io.Discard, spans.Aggregate(sess))
	}); err != nil {
		return err
	}
	return step("spans.explain", func() error { return spans.WriteSlowest(io.Discard, sess, 5) })
}

// writeSummary renders the session summary tapesim prints.
func writeSummary(w io.Writer, agg metrics.SessionStats) {
	fmt.Fprintf(w, "requests simulated        %d (%d bytes)\n", agg.Requests, agg.Bytes)
	fmt.Fprintf(w, "effective bandwidth       %.6g (aggregate %.6g)\n", agg.MeanBandwidth, agg.AggBandwidth)
	fmt.Fprintf(w, "avg response/switch/seek/transfer %.6g %.6g %.6g %.6g\n",
		agg.MeanResponse, agg.MeanSwitch, agg.MeanSeek, agg.MeanTransfer)
	fmt.Fprintf(w, "avg switches/tapes/drives %.4g %.4g %.4g\n", agg.MeanSwitches, agg.MeanTapes, agg.MeanDrivesUsed)
	fmt.Fprintf(w, "p95 response              %.6g\n", agg.Response.P95)
	fmt.Fprintf(w, "availability %.4f goodput %.6g retries %.4g failed %d timed out %d\n",
		agg.Availability, agg.MeanGoodput, agg.MeanRetries, agg.FailedGroups, agg.TimedOut)
}

// checker accumulates the outcome of every correctness check of a run.
type checker struct {
	attempted, failed int
	errs              []error        // the first few failures, for the log
	ref               map[int]string // per input (stream or seed): digest of its first run
}

func (c *checker) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err)
	}
}

// batch checks the batch just run against the oracles and against the
// first run of the same stream: every replay must simulate identical
// results.
func (c *checker) batch(b *bench) {
	for i, m := range b.out {
		c.attempted++
		if err := checkRequest(b.spec.hw, b.spec.healthy, m, b.want[i]); err != nil {
			c.fail(err)
		}
	}
	c.same(b.cur, fmt.Sprintf("stream %d replay", b.cur), digestRequests(b.out))
}

// same records one equality check of a digest against the first digest
// seen for input key.
func (c *checker) same(key int, what, d string) {
	if c.ref == nil {
		c.ref = make(map[int]string)
	}
	first, ok := c.ref[key]
	if !ok {
		c.ref[key] = d
		return
	}
	c.attempted++
	if d != first {
		c.fail(fmt.Errorf("%s: digest %s differs from %s", what, d, first))
	}
}

// digest combines the first-run digests of every input, in input order.
func (c *checker) digest() string {
	h := sha256.New()
	for k := 0; k < len(c.ref); k++ {
		h.Write([]byte(c.ref[k]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reference replays every stream once, untimed: the warm-up that grows
// the system's scratch, and the run every later replay is checked
// against. It returns all streams' results and the mean drive and robot
// utilization over the streams.
func (b *bench) reference(chk *checker) (ref []tapesys.RequestMetrics, driveUtil, robotUtil float64, err error) {
	for k := range b.streams {
		sk, _, err := b.batch(k)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := b.analyze(sk, nil); err != nil {
			return nil, 0, 0, err
		}
		chk.batch(b)
		ref = append(ref, b.out...)
		d, r := utilization(b.sys)
		driveUtil += d / float64(len(b.streams))
		robotUtil += r / float64(len(b.streams))
	}
	return ref, driveUtil, robotUtil, nil
}

// utilization returns the mean busy share of the system's drives and
// robots over the simulated time so far.
func utilization(sys *tapesys.System) (drive, robot float64) {
	now := sys.Now()
	drives, robots := sys.DriveReport(), sys.RobotReport()
	for _, d := range drives {
		drive += d.BusySeconds / now / float64(len(drives))
	}
	for _, r := range robots {
		robot += r.UtilPercent / 100 / float64(len(robots))
	}
	return drive, robot
}

// replay is one timed replay of a stream: the request phase, the
// analysis, and each request's host time (µs).
type replay struct {
	stream          int
	phase, analysis float64
	lat             []float64
}

// runSingle is an untraced run of a single-run workload: set up several
// times, replay every stream once untimed, then replay the streams in
// turn, timed, until the time is up (at least two rounds).
func runSingle(spec singleSpec, seed uint64, budget time.Duration) (*result, error) {
	setupS, b, err := timeSetups(spec, seed, spec.setups)
	if err != nil {
		return nil, err
	}
	defer b.close()

	var chk checker
	ref, _, _, err := b.reference(&chk)
	if err != nil {
		return nil, err
	}
	// Every stream is replayed many times with identical simulated work.
	// Each request's host time is its median over the replays, and the
	// quantiles run over the run's distinct requests. Most requests take
	// under a millisecond, so the CPU time the hypervisor steals in chunks
	// hits few of a request's replays, and the median leaves them out. A
	// batch lasts up to a quarter second and most batches lose some time,
	// so batch times are means over every replay with the steal of the
	// whole timed loop taken out (see ranShare).
	var all []replay
	cpu0, steal0 := cpuSeconds(), hostSteal()
	deadline := time.Now().Add(budget)
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		for k := range b.streams {
			sk, phase, err := b.batch(k)
			if err != nil {
				return nil, fmt.Errorf("batch: %w", err)
			}
			t0 := time.Now()
			if err := b.analyze(sk, nil); err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			analysis := time.Since(t0)
			chk.batch(b)
			r := replay{stream: k, phase: phase.Seconds(), analysis: analysis.Seconds(),
				lat: make([]float64, len(b.lat))}
			for i, d := range b.lat {
				r.lat[i] = float64(d) / 1e3
			}
			all = append(all, r)
		}
	}
	share := ranShare(cpuSeconds()-cpu0, hostSteal()-steal0)
	var phase, analysis float64                              // summed over the replays
	times := make([][]float64, len(b.streams)*batchRequests) // [request][replay], µs
	for _, r := range all {
		phase += r.phase
		analysis += r.analysis
		for i, v := range r.lat {
			j := r.stream*batchRequests + i
			times[j] = append(times[j], v)
		}
	}
	perRequest := make([]float64, len(times))
	for i, t := range times {
		perRequest[i] = median(t)
	}
	n := float64(len(all))
	sim := metrics.AggregateSession(ref)
	res := newResult()
	res.set("setup_s", setupS)
	res.set("requests_per_s", n*batchRequests/(phase*share))
	res.set("request_us_p50", quantile(perRequest, 0.50))
	res.set("request_us_p99", quantile(perRequest, 0.99))
	res.set("sweep_s", (phase+analysis)/n*share)
	res.set("analysis_s", analysis/n*share)
	res.set("peak_rss_mb", peakRSSMB())
	res.set("sim_bandwidth_mbps", sim.MeanBandwidth/1e6)
	res.set("sim_response_s", sim.MeanResponse)
	res.set("sim_availability_pct", 100*sim.Availability)
	res.note("%d set-ups; %d timed replays of %d streams x %d requests; request-time quantiles over %d requests' medians; %.1f%% of the timed loop's CPU time stolen",
		spec.setups, len(all), streamsPerRun, batchRequests, len(perRequest), 100*(1-share))
	res.finish(&chk)
	return res, nil
}
