package main

// metricDef names a reported metric and its unit. The lists must match
// BENCHMARK.json's end_to_end and per_layer entries; a test checks that.
type metricDef struct{ name, unit string }

// endToEnd is reported by every untraced run (--trace 0).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"max_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"ok_frac", "fraction"},
}

// perLayer is reported by every traced run (--trace 1). A metric of a
// layer the workload does not reach reads 0.
var perLayer = []metricDef{
	// sim: the event kernel, as exact Profiler counts.
	{"sim.events", "count"},
	{"sim.runs", "count"},
	{"sim.heap_peak", "count"},
	{"sim.cancel_sweeps", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.events_per_s", "1/s"},
	{"sim.push_pop_ns", "ns"},
	// core: the run kernel behind every simulating call.
	{"core.calls", "count"},
	{"core.busy_s", "s"},
	{"core.sims", "count"},
	{"core.sims_per_call", "ratio"},
	{"core.cache_hits", "count"},
	{"core.cache_misses", "count"},
	{"core.alloc_mb", "MiB"},
	{"core.allocs_per_event", "ratio"},
	{"core.replay_s", "s"},
	{"core.balanced_s", "s"},
	{"core.advise_s", "s"},
	{"core.faulted_s", "s"},
	// fleet: dispatch, rollup and provisioning search.
	{"fleet.run_s", "s"},
	{"fleet.provision_s", "s"},
	{"fleet.provision_sims", "count"},
	// obs: telemetry retention and export.
	{"obs.spans", "count"},
	{"obs.retained_mb", "MiB"},
	{"obs.export_s", "s"},
	{"obs.export_mb", "MiB"},
	{"obs.export_allocs_per_span", "ratio"},
	// flow: the offload control plane.
	{"flow.offload_s", "s"},
	{"flow.insert_rejects", "count"},
	{"flow.thrash", "count"},
	{"flow.fast_path_share", "fraction"},
	// invariant: checked execution against an unchecked pass.
	{"invariant.checked_s", "s"},
	{"invariant.overhead_pct", "%"},
	// report: rendered tables byte-identical to the reference.
	{"report.identical", "count"},
	// Go runtime over the untraced pass.
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "fraction"},
	// Self time per layer in the traced pass, and the tracing overhead.
	{"self.bench_s", "s"},
	{"self.core_s", "s"},
	{"self.fleet_s", "s"},
	{"self.flow_s", "s"},
	{"self.obs_s", "s"},
	{"self.report_s", "s"},
	{"trace.spans", "count"},
	{"trace.wall_s", "s"},
	{"trace.untraced_wall_s", "s"},
	{"trace.overhead_s", "s"},
}

// simLayers are the layers whose calls run simulations through the
// core run kernel.
var simLayers = []string{"core", "fleet", "flow"}
