// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): the hardware table (Table 1) and Figures 5–9, plus the
// technology-scaling and robustness studies the paper mentions in passing,
// an ablation of the parallel-batch design choices, and four extension
// studies (RAIT-style striping, online placement, scheduler policies,
// clustering sensitivity).
//
// Each experiment expands into a set of independent simulation runs
// (scheme × parameter point), executed by a goroutine worker pool; each
// run is itself a deterministic simulation seeded from the experiment
// seed, so reports reproduce exactly for a given Config: the worker count
// changes not a single byte of output, only wall-clock time (the
// determinism contract in docs/ARCHITECTURE.md).
//
// Builders hand RunAll schemes as they are, and the runner resolves the
// §5.1 clustering of every ParallelBatch (unless NoRefine) and
// ClusterProbability scheme without a Precomputed result through a
// clustering memo. The memo is keyed by a content digest of the workload
// (object IDs and sizes, request IDs, probability bits and member lists)
// plus the cluster.Config, so separately built workloads with equal
// content share one clustering. All keeps one memo for its whole sweep;
// an exhibit built on its own (ByID) gets one for its batch. A batch
// queues its distinct clusterings as the pool's first tasks, so the
// workers cluster in parallel and a run whose clustering is still being
// computed waits on that one entry. When All returns it releases the
// clustering scratch buffers (cluster.ReleaseScratch), which otherwise
// stay sized to the sweep's largest input.
//
// Runs within one RunAll batch that share the same (scheme, workload,
// hardware) triple — e.g. the scheduler study's nine policy points — also
// share one memoized placement: Scheme.Place runs once per distinct triple
// and the read-only PlacementResult is reused, concurrently, by every run.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"paralleltape/internal/cluster"
	"paralleltape/internal/faults"
	"paralleltape/internal/metrics"
	"paralleltape/internal/model"
	"paralleltape/internal/placement"
	"paralleltape/internal/rng"
	"paralleltape/internal/tape"
	"paralleltape/internal/tapesys"
	"paralleltape/internal/telemetry"
	"paralleltape/internal/trace"
	"paralleltape/internal/units"
	"paralleltape/internal/workload"
)

// Config scopes an experiment batch.
type Config struct {
	// Seed drives workload generation and request sampling.
	Seed uint64
	// Requests is the number of simulated request submissions per run
	// (the paper uses 200).
	Requests int
	// Workers bounds concurrent runs; 0 means GOMAXPROCS.
	Workers int
	// Scale shrinks the experiment for quick runs (1.0 = the paper's
	// full scale). The object population, the request length range, the
	// figure request-size targets, and (via Quick) the cartridge capacity
	// all scale together, while the predefined request count stays at the
	// paper's 300; this preserves the four ratios that set the regime —
	// total data : mountable capacity, object : cartridge,
	// request : cartridge, and requests sharing an object — so the
	// scheme-comparison shapes survive scaling.
	Scale float64
	// HW is the hardware template (Figure 8 and the tech study override
	// fields per point).
	HW tape.Hardware
	// M is the default number of switch drives per library (paper: 4).
	M int
	// K is the capacity utilization coefficient.
	K float64
	// Seeds is the number of independent request streams simulated per
	// run (each Requests long, against a fresh system on the same
	// placement); their metrics are pooled. More seeds damp sampling
	// noise in the figures.
	Seeds int
	// Faults applies a fault-injection profile to every run that does not
	// carry its own Options.Faults (the chaos exhibit sets per-point
	// profiles and wins). Nil keeps runs failure-free. See
	// docs/RESILIENCE.md for how degraded runs stay deterministic.
	Faults *faults.Profile
	// RequestTimeout is the per-request deadline in simulated seconds
	// applied to runs that do not set their own (0 = none).
	RequestTimeout float64
	// Telemetry, when non-nil, streams live metrics from the sweep: every
	// simulated system gets the collector as its trace recorder, and
	// RunAll maintains the runs/requests targets and the completion
	// counter, so a -progress reporter or a /metrics scrape can follow a
	// long sweep. One collector is safely shared by all workers (its
	// updates are atomic). Nil keeps the hot path recorder-free — the
	// simulator's emit sites stay nil-check-only, with no allocations.
	Telemetry *telemetry.Collector

	// memo shares clusterings across the exhibits of one All call; nil
	// gives each batch a memo of its own.
	memo clusterMemo
}

// Default returns the paper's full-scale configuration.
func Default() Config {
	return Config{
		Seed:     20060815, // ICPP 2006 vintage
		Requests: 200,
		Scale:    1.0,
		HW:       tape.DefaultHardware(),
		M:        4,
		K:        placement.DefaultK,
		Seeds:    3,
	}
}

// Quick returns a reduced-scale configuration for CI and testing.B runs:
// one fifth of the population, 60 simulated requests. Cartridge capacity
// shrinks with the population so the paper's regime — total data several
// times the always-mountable capacity — is preserved; absolute bandwidths
// drop accordingly, but the scheme comparison shapes survive.
func Quick() Config {
	c := Default()
	c.Scale = 0.2
	c.Requests = 60
	c.Seeds = 1
	c.HW.Capacity = int64(float64(c.HW.Capacity) * c.Scale)
	return c
}

// validate rejects negative counts: zero Requests, Workers or Seeds
// selects a default, and a negative one would otherwise run as that
// default without a word.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		n    int
	}{{"Requests", c.Requests}, {"Workers", c.Workers}, {"Seeds", c.Seeds}} {
		if f.n < 0 {
			return fmt.Errorf("experiments: %s must not be negative, got %d", f.name, f.n)
		}
	}
	return nil
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// baseParams derives workload generation parameters at the config's scale.
func (c Config) baseParams() (workload.Params, error) {
	if c.Scale <= 0 {
		return workload.Params{}, fmt.Errorf("experiments: scale must be positive, got %v", c.Scale)
	}
	p := workload.Defaults()
	p.NumObjects = max(200, int(float64(p.NumObjects)*c.Scale))
	if c.Scale != 1 {
		// Request lengths scale with the population (keeping co-access
		// density at the paper's ~1.2 requests per referenced object,
		// since the predefined request count stays at 300).
		p.MinReqLen = max(2, int(float64(p.MinReqLen)*c.Scale))
		p.MaxReqLen = max(p.MinReqLen, int(float64(p.MaxReqLen)*c.Scale))
		// Cap the size tail at 1/40 of the (possibly shrunken) cartridge
		// so the post-retargeting maximum object still fits tape slack.
		if cap40 := c.HW.Capacity / 40; p.MaxObjSize > cap40 && cap40 > 0 {
			p.MaxObjSize = cap40
			if p.MinObjSize > p.MaxObjSize {
				p.MinObjSize = max(1024, p.MaxObjSize/64)
			}
		}
	}
	// Keep request length below the population at tiny scales.
	if p.MaxReqLen > p.NumObjects/4 {
		p.MaxReqLen = p.NumObjects / 4
		if p.MinReqLen > p.MaxReqLen {
			p.MinReqLen = p.MaxReqLen / 2
			if p.MinReqLen < 1 {
				p.MinReqLen = 1
			}
		}
	}
	return p, nil
}

// baseWorkload generates the scaled base workload (α = 0.3) and rescales
// object sizes to hit targetReqBytes (0 keeps natural sizes).
func (c Config) baseWorkload(targetReqBytes float64) (*model.Workload, error) {
	p, err := c.baseParams()
	if err != nil {
		return nil, err
	}
	w, err := workload.Generate(p, rng.New(c.Seed))
	if err != nil {
		return nil, err
	}
	if targetReqBytes > 0 {
		if _, err := workload.TargetMeanRequestBytes(w, targetReqBytes); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Run is one simulation job: place the workload with the scheme, then
// submit Requests sampled requests per seed.
type Run struct {
	Label  string
	Scheme placement.Scheme
	W      *model.Workload
	HW     tape.Hardware
	// Opts tunes the simulator's scheduling; the zero value is the
	// paper's behavior.
	Opts tapesys.Options
	// X is the experiment's independent variable at this point (m, α,
	// request GB, library count, ...), carried through to the row.
	X float64
	// Requests is the number of requests simulated per seed; 0 means
	// Config.Requests.
	Requests int
}

// Row is the outcome of one Run.
type Row struct {
	Label     string
	Scheme    string
	X         float64
	Stats     metrics.SessionStats
	TapesUsed int
	Err       error
}

// placeKey identifies a placement computation: same scheme value, same
// workload instance, same hardware → same (deterministic) result. The
// scheme is held as an interface value, so the key is only usable when the
// scheme's dynamic type is comparable (all built-in schemes are).
type placeKey struct {
	scheme placement.Scheme
	w      *model.Workload
	hw     tape.Hardware
}

// future is one memoized result: once gates the single computation while
// the runs needing the result wait on it. The runner holds placements and
// clusterings in futures.
type future[T any] struct {
	once sync.Once
	v    T
	err  error
}

// get returns the result, computing it with f on first use.
func (e *future[T]) get(f func() (T, error)) (T, error) {
	e.once.Do(func() { e.v, e.err = f() })
	return e.v, e.err
}

// placeCache memoizes Scheme.Place per (scheme, workload, hardware) triple
// for the duration of one RunAll sweep. Placement is deterministic and its
// Result is read-only during simulation, so sharing one Result across
// concurrent runs is safe and changes no output — it only removes
// repeated placement work (the scheduler study runs nine simulations off
// one placement).
type placeCache struct {
	mu sync.Mutex
	m  map[placeKey]*future[*placement.Result]
}

func newPlaceCache() *placeCache {
	return &placeCache{m: make(map[placeKey]*future[*placement.Result])}
}

// place returns the memoized placement for the run, computing it on first
// use. Runs whose scheme has a non-comparable dynamic type bypass the
// cache.
func (pc *placeCache) place(r Run) (*placement.Result, error) {
	if pc == nil || !reflect.TypeOf(r.Scheme).Comparable() {
		return r.Scheme.Place(r.W, r.HW)
	}
	key := placeKey{scheme: r.Scheme, w: r.W, hw: r.HW}
	pc.mu.Lock()
	e, ok := pc.m[key]
	if !ok {
		e = &future[*placement.Result]{}
		pc.m[key] = e
	}
	pc.mu.Unlock()
	return e.get(func() (*placement.Result, error) { return r.Scheme.Place(r.W, r.HW) })
}

// requests returns how many requests r simulates per seed.
func (c Config) requests(r Run) int {
	switch {
	case r.Requests > 0:
		return r.Requests
	case c.Requests > 0:
		return c.Requests
	}
	return 200
}

func (c Config) seeds() int {
	return max(c.Seeds, 1)
}

// clusterings returns the memo a batch resolves its clusterings through.
func (c Config) clusterings() clusterMemo {
	if c.memo != nil {
		return c.memo
	}
	return clusterMemo{}
}

// recorder returns what a run's system records its events into: the
// sweep's telemetry collector, the run's own trace buffer (nil: none),
// both, or nothing (nil).
func (c Config) recorder(buf *trace.Buffer) trace.Recorder {
	switch {
	case buf == nil && c.Telemetry == nil:
		return nil
	case buf == nil:
		return c.Telemetry
	case c.Telemetry == nil:
		return buf
	}
	return trace.Tee{buf, c.Telemetry}
}

// execute performs one run start to finish, taking the run's clustering
// from cl (nil: the scheme clusters nothing, or itself) and recording its
// events into rec (nil: none). pc may be nil (no memoization).
func (c Config) execute(r Run, cl *future[*cluster.Result], pc *placeCache, rec trace.Recorder) Row {
	row := Row{Label: r.Label, Scheme: r.Scheme.Name(), X: r.X}
	if r.Opts.Faults == nil {
		r.Opts.Faults = c.Faults
	}
	if r.Opts.RequestTimeout == 0 {
		r.Opts.RequestTimeout = c.RequestTimeout
	}
	if cl != nil {
		res, err := clustering(cl, r)
		if err != nil {
			row.Err = fmt.Errorf("place: %w", err)
			return row
		}
		r.Scheme = withClustering(r.Scheme, res)
	}
	pr, err := pc.place(r)
	if err != nil {
		row.Err = fmt.Errorf("place: %w", err)
		return row
	}
	row.TapesUsed = pr.TapesUsed
	n := c.requests(r)
	seeds := c.seeds()
	ms := make([]tapesys.RequestMetrics, 0, n*seeds)
	// One System serves every seed: Reset replays the placement's initial
	// state on the same engine, so the event queue, grouping arena, and
	// operation pools grown during seed 0 are reused instead of
	// reallocated per run, and a request grouped in an earlier seed is
	// replayed from the Grouper's memo rather than grouped again.
	var sys *tapesys.System
	for si := 0; si < seeds; si++ {
		if sys == nil {
			sys, err = tapesys.NewWithOptions(r.HW, pr, r.Opts)
			if err == nil && rec != nil {
				sys.SetRecorder(rec)
			}
		} else {
			err = sys.Reset(pr)
		}
		if err != nil {
			row.Err = fmt.Errorf("init: %w", err)
			return row
		}
		stream, err := workload.NewRequestStream(r.W,
			rng.New((c.Seed+uint64(si))^0x9E3779B97F4A7C15))
		if err != nil {
			row.Err = err
			return row
		}
		for i := 0; i < n; i++ {
			m, err := sys.Submit(stream.Next())
			if err != nil {
				row.Err = fmt.Errorf("seed %d request %d: %w", si, i, err)
				return row
			}
			ms = append(ms, m)
		}
	}
	row.Stats = metrics.AggregateSession(ms)
	return row
}

// RunAll executes runs on the worker pool, preserving input order.
func (c Config) RunAll(runs []Run) []Row {
	rows, _ := c.runAll(runs, false)
	return rows
}

// runAll is RunAll that, when traced is set, also records each run's
// events into a trace.Buffer of its own and returns the buffers by run.
func (c Config) runAll(runs []Run, traced bool) ([]Row, []*trace.Buffer) {
	if c.Telemetry != nil {
		// Raise the sweep targets before dispatch so a progress line or
		// scrape mid-sweep sees a stable denominator. Targets accumulate
		// across sequential sweeps sharing one collector (tapebench
		// -experiment all).
		var reqs int
		for _, r := range runs {
			reqs += c.requests(r) * c.seeds()
		}
		c.Telemetry.RunsTarget.Add(int64(len(runs)))
		c.Telemetry.RequestsTarget.Add(int64(reqs))
	}
	rows := make([]Row, len(runs))
	bufs := make([]*trace.Buffer, len(runs))
	if traced {
		for i := range bufs {
			bufs[i] = trace.NewBuffer(0)
		}
	}
	pc := newPlaceCache()
	// The batch's distinct clusterings are the pool's first tasks, so the
	// workers compute them side by side; a run whose clustering another
	// worker still computes waits on that entry alone.
	entries, first := c.clusterings().claims(runs)
	// Job dispatch is an atomic claim counter: workers pull the next index
	// lock-free until the list is drained, with no dispatcher goroutine
	// and no per-job channel operation.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i < len(first) {
					// A failed clustering reaches the rows that need it.
					_, _ = clustering(entries[first[i]], runs[first[i]])
					continue
				}
				if i -= len(first); i >= len(runs) {
					return
				}
				rows[i] = c.execute(runs[i], entries[i], pc, c.recorder(bufs[i]))
				if c.Telemetry != nil {
					c.Telemetry.RunsCompleted.Inc()
				}
			}
		}()
	}
	wg.Wait()
	return rows, bufs
}

// threeSchemes returns the paper's three comparison schemes. The runner
// clusters each workload once for the two that cluster.
func (c Config) threeSchemes() []placement.Scheme {
	return []placement.Scheme{
		placement.ObjectProbability{K: c.K},
		placement.ClusterProbability{K: c.K},
		placement.ParallelBatch{M: c.M, K: c.K},
	}
}

// Report is a finished experiment: a rendered table plus machine-readable
// rows for assertions and plotting.
type Report struct {
	ID      string
	Caption string
	Table   *metrics.Table
	Rows    []Row
}

// Err returns the first run error inside the report, if any.
func (r *Report) Err() error {
	for _, row := range r.Rows {
		if row.Err != nil {
			return fmt.Errorf("%s [%s %s]: %w", r.ID, row.Label, row.Scheme, row.Err)
		}
	}
	return nil
}

// table renders one table row per run from cells, which gives all of a
// row's columns and must accept a failed run's zero Stats. A failed run
// keeps its first labels cells, then "ERROR: …" in place of the values.
func table(title string, columns []string, labels int, rows []Row, cells func(Row) []string) *metrics.Table {
	t := metrics.NewTable(title, columns...)
	for _, r := range rows {
		c := cells(r)
		if r.Err != nil {
			c = append(c[:labels], "ERROR: "+r.Err.Error())
		}
		t.AddRow(c...)
	}
	return t
}

// mbps renders a byte rate as the paper's MB/s axis unit.
func mbps(bytesPerSecond float64) string {
	return fmt.Sprintf("%.1f", bytesPerSecond/1e6)
}

func gb(bytes float64) string {
	return fmt.Sprintf("%.0f", bytes/float64(units.GB))
}

func secs(s float64) string {
	return fmt.Sprintf("%.1f", s)
}

// target maps a paper-quoted request size onto the config's scale:
// requests shrink with cartridges so a request still spans the same
// fraction of a tape.
func (c Config) target(bytes float64) float64 {
	return bytes * c.Scale
}

// reportJSON is the wire form of a Report.
type reportJSON struct {
	ID      string    `json:"id"`
	Caption string    `json:"caption"`
	Rows    []rowJSON `json:"rows"`
}

type rowJSON struct {
	Label         string  `json:"label"`
	Scheme        string  `json:"scheme,omitempty"`
	X             float64 `json:"x,omitempty"`
	TapesUsed     int     `json:"tapes_used,omitempty"`
	Error         string  `json:"error,omitempty"`
	BandwidthMBps float64 `json:"bandwidth_mbps"`
	ResponseS     float64 `json:"response_s"`
	SwitchS       float64 `json:"switch_s"`
	SeekS         float64 `json:"seek_s"`
	TransferS     float64 `json:"transfer_s"`
	Switches      float64 `json:"switches_per_req"`
	Tapes         float64 `json:"tapes_per_req"`
	Drives        float64 `json:"drives_per_req"`
	// Degraded-mode fields (docs/RESILIENCE.md); on a failure-free run
	// availability is 100, goodput equals bandwidth, and the counters are
	// omitted.
	AvailabilityPct float64 `json:"availability_pct,omitempty"`
	GoodputMBps     float64 `json:"goodput_mbps,omitempty"`
	RetriesPerReq   float64 `json:"retries_per_req,omitempty"`
	FailedGroups    int     `json:"failed_groups,omitempty"`
	MediaErrors     int     `json:"media_errors,omitempty"`
	TimedOut        int     `json:"timed_out,omitempty"`
}

// WriteJSON emits the report's rows as a machine-readable series for
// external plotting.
func (r *Report) WriteJSON(w io.Writer) error {
	out := reportJSON{ID: r.ID, Caption: r.Caption}
	for _, row := range r.Rows {
		j := rowJSON{
			Label:     row.Label,
			Scheme:    row.Scheme,
			X:         row.X,
			TapesUsed: row.TapesUsed,
		}
		if row.Err != nil {
			j.Error = row.Err.Error()
		} else {
			j.BandwidthMBps = row.Stats.MeanBandwidth / 1e6
			j.ResponseS = row.Stats.MeanResponse
			j.SwitchS = row.Stats.MeanSwitch
			j.SeekS = row.Stats.MeanSeek
			j.TransferS = row.Stats.MeanTransfer
			j.Switches = row.Stats.MeanSwitches
			j.Tapes = row.Stats.MeanTapes
			j.Drives = row.Stats.MeanDrivesUsed
			j.AvailabilityPct = 100 * row.Stats.Availability
			j.GoodputMBps = row.Stats.MeanGoodput / 1e6
			j.RetriesPerReq = row.Stats.MeanRetries
			j.FailedGroups = row.Stats.FailedGroups
			j.MediaErrors = row.Stats.MediaErrors
			j.TimedOut = row.Stats.TimedOut
		}
		out.Rows = append(out.Rows, j)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}
