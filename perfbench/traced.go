package main

// traced.go is the traced run of the single-run workloads. End-to-end
// metrics come from untraced runs; this run times, with the benchmark's
// own spans, every call it makes into a layer:
//
//   - set-up: one span per step (workload, cluster, placement, tapesys);
//   - request phase: one span per Submit (or per completion gap under
//     SubmitStream). Grouping and read planning happen inside Submit, so
//     they are timed by shadow calls on the same inputs; tapesys.self_us
//     is the Submit time minus the shadows (and minus the recording cost
//     on observed-run). Under SubmitStream, grouping and BOT planning run
//     on the plan-ahead worker, so there the self time is the whole gap;
//   - analysis: one span per report step;
//   - replays of the same streams: a counting trace.Recorder for event
//     counts; Shards 0 and 2 through Submit and SubmitStream for the shard
//     join and pipeline saving (degraded-stream); with and without the
//     sinks for the recording cost (observed-run). Each replay must
//     simulate results identical to the stream's reference run.
//
// unattributed_s is the untraced request phase of one batch minus the
// layers' self times, and trace_overhead_s the traced batch minus the
// untraced one.

import (
	"fmt"
	"runtime"
	"time"

	"paralleltape/internal/catalog"
	"paralleltape/internal/metrics"
	"paralleltape/internal/model"
	"paralleltape/internal/tape"
	"paralleltape/internal/tapesys"
	"paralleltape/internal/telemetry"
	"paralleltape/internal/trace"
)

// counter is a trace.Recorder that only counts events.
type counter struct{ n int }

func (c *counter) Record(trace.Event) { c.n++ }

// traceSetup sets spec up once under tr and reports the set-up layers and
// the set-up's GC cost.
func traceSetup(tr *tracer, res *result, spec singleSpec, seed uint64) (*bench, error) {
	gc0 := gcCPUSeconds()
	root := tr.begin("setup", -1)
	b, err := setup(spec, seed, tr)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res.set("gc.cpu_s", gcCPUSeconds()-gc0)
	for _, name := range []string{"workload.generate", "cluster.run", "placement.place",
		"placement.validate", "tapesys.new"} {
		res.set(name+"_s", tr.total(name))
	}
	res.set("cluster.alloc_mb", b.clusterAllocMB)
	res.set("cluster.clusters", float64(b.clusters))
	res.set("placement.tapes_used", float64(b.pl.TapesUsed))
	return b, nil
}

// rounds calls fn for every stream in turn, in rounds, until the time is
// up, and at least twice per stream.
func rounds(b *bench, budget time.Duration, fn func(k int) error) error {
	end := time.Now().Add(budget)
	for round := 0; round < 2 || time.Now().Before(end); round++ {
		for k := range b.streams {
			if err := fn(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceSingle is the traced run of a single-run workload. The budget is
// shared out: 60% alternating untraced and traced batches, 20% replays.
func traceSingle(spec singleSpec, seed uint64, budget time.Duration) (*result, error) {
	tr := newTracer()
	res := newResult()
	res.spans = tr
	b, err := traceSetup(tr, res, spec, seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	var chk checker
	n := float64(batchRequests)

	ref, driveUtil, robotUtil, err := b.reference(&chk)
	if err != nil {
		return nil, err
	}
	simLayers(res, ref)
	res.set("drive.utilization", driveUtil)
	res.set("robot.utilization", robotUtil)

	// Untraced and traced replays alternate, so a stretch of host
	// interference falls on both. The untraced ones give the request phase
	// the layers must account for, and its GC cost (one batch with its
	// analysis).
	grouper := catalog.NewGrouper(b.pl.Catalog)
	var planner tape.Planner
	var untraced, batchGC, groups, extents, traced []float64
	turn := 0
	err = rounds(b, budget*6/10, func(k int) error {
		turn++
		for i := 0; i < 2; i++ {
			if (i+turn)%2 == 0 {
				gc0 := gcCPUSeconds()
				sk, phase, err := b.batch(k)
				if err != nil {
					return err
				}
				if err := b.analyze(sk, nil); err != nil {
					return err
				}
				batchGC = append(batchGC, gcCPUSeconds()-gc0)
				untraced = append(untraced, phase.Seconds())
				chk.batch(b)
				continue
			}
			pass := tr.begin("batch", -1)
			sk, g, e, err := b.tracedBatch(k, tr, grouper, &planner)
			tr.end(pass)
			if err != nil {
				return err
			}
			traced = append(traced, tr.seconds(pass))
			groups, extents = append(groups, g), append(extents, e)
			chk.batch(b)
			an := tr.begin("analysis", -1)
			err = b.analyze(sk, tr)
			tr.end(an)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.set("gc.cpu_s", res.values["gc.cpu_s"]+median(batchGC))
	allocs, err := allocPerRequest(b, &chk)
	if err != nil {
		return nil, err
	}
	res.set("go.alloc_bytes_per_request", allocs)

	self, count := tr.selfTimes()
	perReq := func(name string) float64 { return 1e6 * self[name] / float64(max(count[name], 1)) }
	perBatch := func(name string) float64 { return self[name] / float64(len(traced)) }
	submitUS := perReq("tapesys.submit")
	groupUS := perReq("catalog.group")
	planUS := perReq("tape.plan") / 2 // each group is planned from two head positions
	res.set("tapesys.submit_us", submitUS)
	res.set("catalog.group_us", groupUS)
	res.set("tape.plan_us", planUS)
	res.set("catalog.groups_per_request", median(groups))
	res.set("catalog.extents_per_request", median(extents))
	res.set("metrics.aggregate_ms", 1e3*perBatch("metrics.aggregate"))
	if spec.observed {
		res.set("metrics.timeline_s", perBatch("metrics.timeline"))
		res.set("spans.build_s", perBatch("spans.build"))
		res.set("spans.aggregate_s", perBatch("spans.aggregate"))
		res.set("spans.explain_s", perBatch("spans.explain"))
	}

	// Event counts, from a counting recorder on a replay of every stream.
	cnt := &counter{}
	for k := range b.streams {
		b.use(k)
		if err := b.sys.Reset(b.pl); err != nil {
			return nil, err
		}
		b.sys.SetRecorder(cnt)
		if _, err := b.run(b.sys, spec.stream); err != nil {
			return nil, err
		}
		chk.batch(b)
	}
	b.sys.SetRecorder(nil)
	events := float64(cnt.n) / (n * float64(len(b.streams)))
	res.set("sim.events_per_request", events)

	// Workload-specific replays. The layers' self times per request sum to
	// the Submit time: grouping, planning, recording (observed-run) and the
	// rest of tapesys. On observed-run the replays without sinks give the
	// Submit time the recording cost is measured against.
	inGroup, inPlan := groupUS, planUS
	layers := submitUS
	var recordUS float64
	switch {
	case spec.stream:
		inGroup, inPlan = 0, 0
		if err := streamReplays(res, b, &chk, budget/5); err != nil {
			return nil, err
		}
	case spec.observed:
		var bareUS float64
		if recordUS, bareUS, err = sinkReplays(res, b, &chk, budget/5); err != nil {
			return nil, err
		}
		layers = bareUS + recordUS
	}
	selfUS := layers - inGroup - inPlan - recordUS
	res.set("tapesys.self_us", selfUS)
	res.set("tapesys.ns_per_event", 1e3*selfUS/events)

	phase := median(untraced)
	attributed := n * layers / 1e6
	res.set("request_phase_s", phase)
	res.set("trace_overhead_s", median(traced)-phase)
	res.set("unattributed_s", phase-attributed)
	res.note("request phase %.6fs = %g requests x (catalog.group %.3f + tape.plan %.3f + trace.record %.3f + tapesys.self %.3f)us + unattributed %.6fs",
		phase, n, inGroup, inPlan, recordUS, selfUS, phase-attributed)
	res.note("batches: %d untraced, %d traced; tracing overhead %.6fs per batch",
		len(untraced), len(traced), median(traced)-phase)
	zeroUnset(res)
	res.finish(&chk)
	return res, nil
}

// allocPerRequest returns the heap bytes allocated per request over the
// request phase of one batch of each stream.
func allocPerRequest(b *bench, chk *checker) (float64, error) {
	var total uint64
	for k := range b.streams {
		b.use(k)
		b.settle()
		if err := b.sys.Reset(b.pl); err != nil {
			return 0, err
		}
		if b.spec.observed {
			attach(b.sys)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := b.run(b.sys, b.spec.stream); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
		chk.batch(b)
	}
	b.sys.SetRecorder(nil)
	return float64(total) / float64(batchRequests*len(b.streams)), nil
}

// tracedBatch replays stream k with one span per request and returns the
// mean groups and extents per request. Under Submit each request span
// holds the shadow grouping and planning calls and the Submit itself;
// under SubmitStream each completion gap is a span, and the shadows run
// after the stream.
func (b *bench) tracedBatch(k int, tr *tracer, grouper *catalog.Grouper, planner *tape.Planner) (sk *sinks, groups, extents float64, err error) {
	b.use(k)
	b.settle()
	if err := b.sys.Reset(b.pl); err != nil {
		return nil, 0, 0, err
	}
	if b.spec.observed {
		sk = attach(b.sys)
	}
	var ngroups, nextents int
	shadow := func(r *model.Request) error {
		sp := tr.begin("catalog.group", int64(r.ID))
		gs, err := grouper.Group(r)
		tr.end(sp)
		if err != nil {
			return err
		}
		// Each group once from beginning-of-tape and once from mid-tape,
		// the two kinds of head position Submit plans from.
		sp = tr.begin("tape.plan", int64(r.ID))
		mid := b.spec.hw.Capacity / 2
		for _, g := range gs {
			planner.Plan(b.spec.hw, 0, g.Extents)
			planner.Plan(b.spec.hw, mid, g.Extents)
		}
		tr.end(sp)
		ngroups += len(gs)
		for _, g := range gs {
			nextents += len(g.Extents)
		}
		return nil
	}
	if b.spec.stream {
		next, done := 0, 0
		prev := time.Since(tr.origin)
		err := b.sys.SubmitStream(
			func() *model.Request {
				if next == len(b.reqs) {
					return nil
				}
				next++
				return b.reqs[next-1]
			},
			func(m tapesys.RequestMetrics) error {
				now := time.Since(tr.origin)
				tr.add("tapesys.submit", int64(m.Request), prev, now)
				b.out[done] = m
				done++
				prev = now
				return nil
			})
		if err != nil {
			return nil, 0, 0, err
		}
		for _, r := range b.reqs {
			sp := tr.begin("request", int64(r.ID))
			err := shadow(r)
			tr.end(sp)
			if err != nil {
				return nil, 0, 0, err
			}
		}
	} else {
		for i, r := range b.reqs {
			sp := tr.begin("request", int64(r.ID))
			if err := shadow(r); err != nil {
				return nil, 0, 0, err
			}
			sub := tr.begin("tapesys.submit", int64(r.ID))
			m, err := b.sys.Submit(r)
			tr.end(sub)
			tr.end(sp)
			if err != nil {
				return nil, 0, 0, err
			}
			b.out[i] = m
		}
	}
	n := float64(len(b.reqs))
	return sk, float64(ngroups) / n, float64(nextents) / n, nil
}

// simLayers reports the simulated per-layer metrics of the reference run.
func simLayers(res *result, ref []tapesys.RequestMetrics) {
	agg := metrics.AggregateSession(ref)
	var seek, xfer float64
	for _, m := range ref {
		seek += m.SumSeek
		xfer += m.SumTransfer
	}
	n := float64(len(ref))
	res.set("tape.seek_s", seek/n)
	res.set("tape.transfer_s", xfer/n)
	res.set("tapesys.switches_per_request", agg.MeanSwitches)
	res.set("tapesys.mounted_ratio", agg.MeanMountedPct)
	res.set("robot.wait_s", agg.MeanRobotWait)
	res.set("recovery.retries_per_request", agg.MeanRetries)
	res.set("recovery.failed_groups", float64(agg.FailedGroups))
	res.set("recovery.timed_out", float64(agg.TimedOut))
	// A precomputed plan is used for each switch (a fresh mount at
	// beginning-of-tape), out of one per tape group.
	if agg.MeanTapes > 0 {
		res.set("pipeline.plan_use_ratio", agg.MeanSwitches/agg.MeanTapes)
	}
}

// streamReplays replays degraded-stream's streams at Shards 0 and 2
// through Submit and SubmitStream, in rotating order until the time is
// up. The shard join cost is Submit at 2 shards minus at 0; the pipeline
// saving is Submit minus SubmitStream at 2 shards. Every replay must
// simulate the stream's reference results.
func streamReplays(res *result, b *bench, chk *checker, budget time.Duration) error {
	opts0 := b.spec.opts
	opts0.Shards = 0
	sys0, err := tapesys.NewWithOptions(b.spec.hw, b.pl, opts0)
	if err != nil {
		return err
	}
	defer sys0.Close()
	type variant struct {
		sys    *tapesys.System
		stream bool
		phases []float64
	}
	vs := []*variant{{sys: sys0}, {sys: b.sys}, {sys: sys0, stream: true}, {sys: b.sys, stream: true}}
	turn := 0
	err = rounds(b, budget, func(k int) error {
		b.use(k)
		turn++
		for i := range vs {
			v := vs[(i+turn)%len(vs)]
			if err := v.sys.Reset(b.pl); err != nil {
				return err
			}
			phase, err := b.run(v.sys, v.stream)
			if err != nil {
				return err
			}
			v.phases = append(v.phases, phase.Seconds())
			chk.batch(b)
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(batchRequests)
	res.set("shard.join_us", 1e6*(median(vs[1].phases)-median(vs[0].phases))/n)
	res.set("pipeline.saved_us", 1e6*(median(vs[1].phases)-median(vs[3].phases))/n)
	return nil
}

// sinkReplays replays observed-run's streams with and without the sinks,
// alternating until the time is up, and returns the recording cost per
// request and the host time per request without sinks. It also reports
// the JSONL volume and the collector's cost per event. Both replays must
// simulate the stream's reference results.
func sinkReplays(res *result, b *bench, chk *checker, budget time.Duration) (recordUS, bareUS float64, err error) {
	var with, without, jsonlMB []float64
	var last *sinks
	turn := 0
	err = rounds(b, budget, func(k int) error {
		turn++
		for i := 0; i < 2; i++ {
			observe := (i+turn)%2 == 0
			b.use(k)
			b.settle()
			if err := b.sys.Reset(b.pl); err != nil {
				return err
			}
			var sk *sinks
			if observe {
				sk = attach(b.sys)
			} else {
				b.sys.SetRecorder(nil)
			}
			phase, err := b.run(b.sys, false)
			if err != nil {
				return err
			}
			if observe {
				with = append(with, phase.Seconds())
				if err := sk.jsonl.Close(); err != nil {
					return err
				}
				jsonlMB = append(jsonlMB, float64(sk.bytes.n)/1e6)
				last = sk
			} else {
				without = append(without, phase.Seconds())
			}
			chk.batch(b)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	b.sys.SetRecorder(nil)
	n := float64(batchRequests)
	bareUS = 1e6 * median(without) / n
	recordUS = 1e6*median(with)/n - bareUS
	res.set("trace.record_us", recordUS)
	res.set("trace.jsonl_mb", median(jsonlMB))
	var perEvent []float64
	for i := 0; i < 5; i++ {
		col := telemetry.NewCollector(telemetry.NewRegistry())
		t0 := time.Now()
		for _, ev := range last.buf.Events {
			col.Record(ev)
		}
		perEvent = append(perEvent, float64(time.Since(t0).Nanoseconds())/float64(len(last.buf.Events)))
	}
	res.set("telemetry.ns_per_event", median(perEvent))
	return recordUS, bareUS, nil
}
