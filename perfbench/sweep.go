package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"paralleltape/internal/experiments"
	"paralleltape/internal/placement"
	"paralleltape/internal/workload"
)

// sweepConfig is tapebench's quick sweep at seed on one worker per CPU.
func sweepConfig(seed uint64) experiments.Config {
	cfg := experiments.Quick()
	cfg.Seed = seed
	cfg.Workers = runtime.NumCPU()
	return cfg
}

// quickSpec is the paper configuration at the Quick scale: the set-up
// each of the sweep's parallel-batch runs performs. The generator
// parameters are the sweep's base workload (one fifth of the population,
// request lengths and the object-size cap scaled with it).
func quickSpec(cfg experiments.Config) singleSpec {
	p := workload.Defaults()
	p.NumObjects = int(float64(p.NumObjects) * cfg.Scale)
	p.MinReqLen = int(float64(p.MinReqLen) * cfg.Scale)
	p.MaxReqLen = int(float64(p.MaxReqLen) * cfg.Scale)
	p.MaxObjSize = min(p.MaxObjSize, cfg.HW.Capacity/40)
	return singleSpec{
		hw:      cfg.HW,
		params:  p,
		scheme:  placement.ParallelBatch{M: cfg.M},
		healthy: true,
	}
}

// sweepSetups is how many quick set-ups an untraced sweep run times.
const sweepSetups = 7

// sweepSeeds is how many seeds, seed to seed+sweepSeeds-1, an untraced
// run sweeps in turn. A sweep's cost depends on the workloads its seed
// generates, so the run reports the mean over a fixed set of seeds.
const sweepSeeds = 4

// renderRepeats is how many times a sweep's output is rendered to time
// it; rendering takes about a millisecond.
const renderRepeats = 200

// sweep is one pass over every exhibit, checked and rendered.
type sweep struct {
	wall              time.Duration
	cpu, gcCPU, steal float64 // process, GC and stolen CPU seconds of the wall time
	requests          int
	renders           []float64 // seconds each rendering of the output took
	reps              []*experiments.Report
}

// sweepOnce regenerates every exhibit with experiments.All from a
// collected heap, as a fresh tapebench process would, and times rendering
// what tapebench prints, each exhibit's table and its JSON rows,
// renderRepeats times. The sweep's garbage is collected before rendering,
// so that a collection left running by the sweep does not land in a
// rendering at random.
func sweepOnce(cfg experiments.Config) (*sweep, error) {
	runtime.GC()
	cpu0, gc0, steal0 := cpuSeconds(), gcCPUSeconds(), hostSteal()
	t0 := time.Now()
	reps, err := experiments.All(cfg)
	if err != nil {
		return nil, err
	}
	s := &sweep{wall: time.Since(t0), cpu: cpuSeconds() - cpu0, gcCPU: gcCPUSeconds() - gc0,
		steal: hostSteal() - steal0, reps: reps}
	runtime.GC()
	for i := 0; i < renderRepeats; i++ {
		t1 := time.Now()
		for _, rep := range reps {
			if err := rep.Table.Render(io.Discard); err != nil {
				return nil, err
			}
			if err := rep.WriteJSON(io.Discard); err != nil {
				return nil, err
			}
		}
		s.renders = append(s.renders, time.Since(t1).Seconds())
	}
	for _, rep := range reps {
		for _, row := range rep.Rows {
			s.requests += row.Stats.Requests
		}
	}
	return s, nil
}

// sweep holds a sweep's rows to their oracles and its digest to the
// first sweep of the same seed (input key).
func (c *checker) sweep(key int, cfg experiments.Config, reps []*experiments.Report) error {
	rows, fails := checkReports(cfg.HW, reps)
	c.attempted += rows
	for _, err := range fails {
		c.fail(err)
	}
	d, err := digestReports(reps)
	if err != nil {
		return err
	}
	c.same(key, fmt.Sprintf("sweep at seed %d", cfg.Seed), d)
	return nil
}

// timeSetups sets spec up n times, collecting the heap between set-ups,
// and returns the median wall time with the hypervisor's steal taken out
// (see ranShare) and the last set-up, which the caller closes.
func timeSetups(spec singleSpec, seed uint64, n int) (float64, *bench, error) {
	var ts []float64
	var b *bench
	for i := 0; i < n; i++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
		}
		cpu0, steal0 := cpuSeconds(), hostSteal()
		t0 := time.Now()
		var err error
		if b, err = setup(spec, seed, nil); err != nil {
			return 0, nil, fmt.Errorf("setup: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds()*ranShare(cpuSeconds()-cpu0, hostSteal()-steal0))
	}
	return median(ts), b, nil
}

// runSweep is an untraced exhibit-sweep run: quick set-ups, then whole
// sweeps at each of sweepSeeds seeds in turn until the time is up (at
// least two rounds). A sweep lasts seconds, long enough for the steal
// count to say how much the hypervisor slowed it, so each sweep's wall
// time is taken with the steal taken out (see ranShare). sweep_s is the
// mean over the seeds of each seed's median sweep.
//
// analysis_s is the fastest of all the run's renderings. A rendering
// takes about a millisecond, less than the spells in which other tenants
// of the host slow this one down by up to 1.7 times, so renderings come
// in a fast and a slow group whose shares change from run to run, and any
// central figure of them moves with those shares. The fastest one is
// the cost of rendering without that interference.
func runSweep(seed uint64, budget time.Duration) (*result, error) {
	setupS, b, err := timeSetups(quickSpec(sweepConfig(seed)), seed, sweepSetups)
	if err != nil {
		return nil, err
	}
	b.close()
	var chk checker
	walls := make([][]float64, sweepSeeds) // per seed, each sweep's wall time
	var perReq []float64                   // per sweep, host µs per request
	var rows []*experiments.Report
	requests := 0
	fastest := math.Inf(1)
	deadline := time.Now().Add(budget)
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		for k := 0; k < sweepSeeds; k++ {
			cfg := sweepConfig(seed + uint64(k))
			s, err := sweepOnce(cfg)
			if err != nil {
				return nil, err
			}
			if err := chk.sweep(k, cfg, s.reps); err != nil {
				return nil, err
			}
			if round == 0 {
				rows = append(rows, s.reps...)
				requests += s.requests
			}
			fastest = min(fastest, slices.Min(s.renders))
			wall := s.wall.Seconds() * ranShare(s.cpu, s.steal)
			walls[k] = append(walls[k], wall)
			perReq = append(perReq, wall*1e6*float64(cfg.Workers)/float64(s.requests))
		}
	}
	var sweepS float64
	for _, ws := range walls {
		sweepS += median(ws) / sweepSeeds
	}
	res := newResult()
	res.set("setup_s", setupS)
	res.set("requests_per_s", float64(requests)/sweepSeeds/sweepS)
	res.set("request_us_p50", quantile(perReq, 0.50))
	res.set("request_us_p99", quantile(perReq, 0.99))
	res.set("sweep_s", sweepS)
	res.set("analysis_s", fastest)
	res.set("peak_rss_mb", peakRSSMB())
	bw, resp, avail := sweepSim(rows)
	res.set("sim_bandwidth_mbps", bw)
	res.set("sim_response_s", resp)
	res.set("sim_availability_pct", avail)
	res.note("%d sweeps over seeds %d..%d on %d workers; %d simulated requests per round; analysis_s is the fastest of %d renderings",
		len(perReq), seed, seed+sweepSeeds-1, runtime.NumCPU(), requests, len(perReq)*renderRepeats)
	res.finish(&chk)
	return res, nil
}

// sweepSim returns the mean bandwidth (MB/s) and response (s) over the
// sweep's simulated rows and the delivered share of requested bytes (%).
func sweepSim(reps []*experiments.Report) (bw, resp, avail float64) {
	var rows int
	var served, bytes int64
	for _, rep := range reps {
		for _, row := range rep.Rows {
			if row.Stats.Requests == 0 {
				continue
			}
			rows++
			bw += row.Stats.MeanBandwidth / 1e6
			resp += row.Stats.MeanResponse
			served += row.Stats.BytesServed
			bytes += row.Stats.Bytes
		}
	}
	if rows == 0 || bytes == 0 {
		return 0, 0, 0
	}
	return bw / float64(rows), resp / float64(rows), 100 * float64(served) / float64(bytes)
}

// traceSweep is the traced exhibit-sweep run: one traced quick set-up,
// then alternating untraced experiments.All sweeps and traced sweeps that
// time each exhibit through experiments.ByID, until the time is up.
func traceSweep(seed uint64, budget time.Duration) (*result, error) {
	cfg := sweepConfig(seed)
	tr := newTracer()
	res := newResult()
	res.spans = tr
	b, err := traceSetup(tr, res, quickSpec(cfg), seed)
	if err != nil {
		return nil, err
	}
	b.close()
	var chk checker
	var walls, traced, util, gc []float64
	perExhibit := make(map[string][]float64)
	deadline := time.Now().Add(budget)
	for len(walls) == 0 || time.Now().Before(deadline) {
		s, err := sweepOnce(cfg)
		if err != nil {
			return nil, err
		}
		util = append(util, s.cpu/(s.wall.Seconds()*float64(cfg.Workers)))
		gc = append(gc, s.gcCPU)
		walls = append(walls, s.wall.Seconds())
		if err := chk.sweep(0, cfg, s.reps); err != nil {
			return nil, err
		}

		runtime.GC()
		pass := tr.begin("sweep", -1)
		var reps []*experiments.Report
		for _, id := range exhibits {
			sp := tr.begin("experiments."+id, -1)
			rep, err := experiments.ByID(id, cfg)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			perExhibit[id] = append(perExhibit[id], tr.seconds(sp))
			reps = append(reps, rep)
		}
		tr.end(pass)
		traced = append(traced, tr.seconds(pass))
		// The exhibits one by one must equal the sweep.
		if err := chk.sweep(0, cfg, reps); err != nil {
			return nil, err
		}
	}
	var attributed float64
	for _, id := range exhibits {
		v := median(perExhibit[id])
		res.set("experiments."+id+"_s", v)
		attributed += v
	}
	phase := median(walls)
	res.set("experiments.cpu_util", median(util))
	res.set("gc.cpu_s", median(gc))
	res.set("request_phase_s", phase)
	res.set("trace_overhead_s", median(traced)-phase)
	res.set("unattributed_s", phase-attributed)
	res.note("sweep %.4fs = exhibits %.4fs + unattributed %.4fs (%d untraced and %d traced sweeps)",
		phase, attributed, phase-attributed, len(walls), len(traced))
	zeroUnset(res)
	res.finish(&chk)
	return res, nil
}
