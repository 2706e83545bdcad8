package main

// metricDef names one reported metric and its unit. Units follow one
// rule: a unit of s, us, ms or ns is host time; sim_s is simulated time.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the simulator sees. Every untraced
// run reports all of them, on every workload; the doc comment of main.go
// says what each means on the workloads it was not written for.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"requests_per_s", "req/s"},
	{"request_us_p50", "us"},
	{"request_us_p99", "us"},
	{"sweep_s", "s"},
	{"analysis_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_bandwidth_mbps", "MB/s"},
	{"sim_response_s", "sim_s"},
	{"sim_availability_pct", "%"},
}

// exhibits is the order experiments.All regenerates the exhibits in; the
// traced sweep times each one through experiments.ByID.
var exhibits = []string{
	"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "tech",
	"robustness", "ablation", "striping", "online", "scheduler",
	"sensitivity", "chaos", "phases",
}

// perLayer lists the metrics of the traced run, named after the module
// whose calls they time or count. A workload that does not exercise a
// layer reports 0 for it.
func perLayer() []metricDef {
	defs := []metricDef{
		{"workload.generate_s", "s"},
		{"cluster.run_s", "s"},
		{"cluster.alloc_mb", "MB"},
		{"cluster.clusters", "count"},
		{"placement.place_s", "s"},
		{"placement.validate_s", "s"},
		{"placement.tapes_used", "count"},
		{"tapesys.new_s", "s"},
		{"catalog.group_us", "us"},
		{"catalog.groups_per_request", "count"},
		{"catalog.extents_per_request", "count"},
		{"tape.plan_us", "us"},
		{"tape.seek_s", "sim_s"},
		{"tape.transfer_s", "sim_s"},
		{"tapesys.submit_us", "us"},
		{"tapesys.self_us", "us"},
		{"sim.events_per_request", "count"},
		{"tapesys.ns_per_event", "ns"},
		{"go.alloc_bytes_per_request", "bytes"},
		{"shard.join_us", "us"},
		{"pipeline.saved_us", "us"},
		{"pipeline.plan_use_ratio", "ratio"},
		{"recovery.retries_per_request", "count"},
		{"recovery.failed_groups", "count"},
		{"recovery.timed_out", "count"},
		{"tapesys.switches_per_request", "count"},
		{"tapesys.mounted_ratio", "ratio"},
		{"robot.wait_s", "sim_s"},
		{"robot.utilization", "ratio"},
		{"drive.utilization", "ratio"},
		{"metrics.aggregate_ms", "ms"},
		{"trace.record_us", "us"},
		{"trace.jsonl_mb", "MB"},
		{"telemetry.ns_per_event", "ns"},
		{"spans.build_s", "s"},
		{"spans.aggregate_s", "s"},
		{"spans.explain_s", "s"},
		{"metrics.timeline_s", "s"},
	}
	for _, id := range exhibits {
		defs = append(defs, metricDef{"experiments." + id + "_s", "s"})
	}
	return append(defs,
		metricDef{"experiments.cpu_util", "ratio"},
		metricDef{"gc.cpu_s", "s"},
		metricDef{"request_phase_s", "s"},
		metricDef{"trace_overhead_s", "s"},
		metricDef{"unattributed_s", "s"},
	)
}

// zeroUnset reports 0 for every per-layer metric the workload does not
// exercise.
func zeroUnset(res *result) {
	for _, d := range perLayer() {
		if _, ok := res.values[d.Name]; !ok {
			res.set(d.Name, 0)
		}
	}
}
