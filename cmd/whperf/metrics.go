package main

// metricDef describes one metric whperf reports. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatchesDefs keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
}

// Every metric below is host time or host memory unless its name says
// otherwise; simulated results enter only through the digests.

// endToEnd are the metrics of an untraced run (-trace 0), reported for
// every workload. An op is the workload's unit of work (see workloads.go).
var endToEnd = []metricDef{
	{Name: "op_s_p50", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "live_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// experimentIDs are the paper's artifacts in registry order.
var experimentIDs = []string{
	"table1", "fig1", "table2", "fig2ab", "fig2c", "fig3",
	"rackpower", "fig4b", "fig4c", "table3", "fig5", "fig5alt",
}

// perLayer are the metrics of a traced run (-trace 1): the layer probes
// of probes.go, identical for every workload, plus the traced
// workload's own runtime figures. README.md maps each to the end-to-end
// metric and workload it should move.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "des.event_ns", Unit: "ns", Better: "lower"},
		{Name: "des.resource_op_ns", Unit: "ns", Better: "lower"},
		{Name: "des.events_per_req.flat", Unit: "count", Better: "lower"},
		{Name: "des.events_per_req.rack", Unit: "count", Better: "lower"},

		{Name: "shard.speedup_2", Unit: "x", Better: "higher"},
		{Name: "shard.rounds", Unit: "count", Better: "lower"},
		{Name: "shard.events_per_round", Unit: "count", Better: "higher"},
		{Name: "shard.blocked_frac", Unit: "frac", Better: "lower"},
		{Name: "shard.msgs", Unit: "count", Better: "lower"},

		{Name: "cluster.flat_search_s", Unit: "s", Better: "lower"},
		{Name: "cluster.search_reqs", Unit: "count", Better: "lower"},
		{Name: "cluster.flat_req_per_s", Unit: "1/s", Better: "higher"},
		{Name: "cluster.rack_s", Unit: "s", Better: "lower"},
		{Name: "cluster.rack_req_per_s", Unit: "1/s", Better: "higher"},
		{Name: "cluster.fleet_hot_ns_per_rack_s", Unit: "ns", Better: "lower"},
		{Name: "cluster.fleet_cold_ns_per_rack_s", Unit: "ns", Better: "lower"},
		{Name: "cluster.analyze_ns", Unit: "ns", Better: "lower"},
		{Name: "cluster.analyze_at_ns", Unit: "ns", Better: "lower"},

		{Name: "workload.sample_ns", Unit: "ns", Better: "lower"},
	}
	for _, topo := range []string{"flat", "rack"} {
		for _, step := range ladderSteps {
			defs = append(defs,
				metricDef{Name: "ladder." + topo + "." + step + "_s", Unit: "s", Better: "lower"},
				metricDef{Name: "ladder." + topo + "." + step + "_mb", Unit: "MB", Better: "lower"})
		}
	}
	defs = append(defs,
		metricDef{Name: "obs.sink_cost_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "window.tee_cost_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "energy.tee_cost_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "span.trace_cost_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "obs.export_s", Unit: "s", Better: "lower"},
		metricDef{Name: "obs.export_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "obs.events", Unit: "count", Better: "lower"},
		metricDef{Name: "window.export_s", Unit: "s", Better: "lower"},
		metricDef{Name: "energy.export_s", Unit: "s", Better: "lower"},

		metricDef{Name: "memblade.access_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "flashcache.op_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "trace.collect_pages_s", Unit: "s", Better: "lower"},
		metricDef{Name: "stats.zipf_rank_ns", Unit: "ns", Better: "lower"},
	)
	for _, d := range searchDesigns() {
		defs = append(defs, metricDef{Name: "core.cluster_config_s." + d.Name, Unit: "s", Better: "lower"})
	}
	for _, id := range experimentIDs {
		defs = append(defs, metricDef{Name: "experiments." + id + "_s", Unit: "s", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "runtime.cpu_s", Unit: "s", Better: "lower"},
		metricDef{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "runtime.host_slowdown", Unit: "x", Better: "lower"},
		metricDef{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
	)
}

// ladderSteps are the layer steps of the observability ladder: each
// adds one plane to the previous one.
var ladderSteps = []string{"plain", "obs", "slo", "energy", "trace"}
