package main

// endToEnd maps each end-to-end metric to its unit. Every workload
// reports all of them; for each workload the meaning is:
//
//	setup_s          median of setupReps set-ups: corpus generation plus
//	                 engine or stack boot and readiness (serve: plus
//	                 warming the catalog into the stack)
//	nets_per_s       first-seen nets finished per second (synth, margin:
//	                 the cold pass; serve: never-seen requests)
//	twin_nets_per_s  permuted-twin requests finished per second
//	net_p50/p99_ms   latency of first-seen nets, submit to report
//	req_per_s        every request per second, cold and twin
//	req_p50/p99_ms   latency of every request (serve: client-observed)
//	peak_rss_mb      peak resident memory of the benchmark process
//	allocs_per_op    heap allocations per request in the timed window
//	c_lines          lines of generated C over the workload's distinct
//	                 schedulable nets (paper Table I)
//	code_cycles      clock cycles of those programs' nominal runs under
//	                 rtos.DefaultCostModel (paper Table I)
//
// failed_frac is not a metric here because it is zero on a passing run:
// the result line's failed and attempted carry it, and the run record
// states it.
var endToEnd = map[string]string{
	"setup_s":         "s",
	"nets_per_s":      "1/s",
	"twin_nets_per_s": "1/s",
	"net_p50_ms":      "ms",
	"net_p99_ms":      "ms",
	"req_per_s":       "1/s",
	"req_p50_ms":      "ms",
	"req_p99_ms":      "ms",
	"peak_rss_mb":     "MB",
	"allocs_per_op":   "count",
	"c_lines":         "lines",
	"code_cycles":     "cycles",
}

// perLayer maps each per-layer metric of the traced replay to its unit.
// Times are self times summed over one replay pass; counts are per pass.
var perLayer = map[string]string{
	"petri.parse.ms":          "ms",
	"petri.parse.calls":       "count",
	"petri.canonical.ms":      "ms",
	"petri.canonical.calls":   "count",
	"invariant.tsemiflows.ms": "ms",
	"invariant.psemiflows.ms": "ms",
	"invariant.semiflows":     "count",
	"core.reduce.ms":          "ms",
	"core.reductions":         "count",
	"core.solve.ms":           "ms",
	"core.dedup.ratio":        "ratio",
	"core.cycles":             "count",
	"core.bounds.ms":          "ms",
	"core.tasks.ms":           "ms",
	"codegen.generate.ms":     "ms",
	"codegen.ir_nodes":        "count",
	"codegen.emit.ms":         "ms",
	"codegen.c_lines":         "lines",
	"sim.calibrate.ms":        "ms",
	"sim.robust.ms":           "ms",
	"sim.margin.ms":           "ms",
	"sim.margin.probes":       "count",
	"sim.events":              "count",
	"engine.analyze.ms":       "ms",
	"engine.synthesize.ms":    "ms",
	"engine.self.ms":          "ms",
	"engine.wait.ms":          "ms",
	"engine.cache.hit_ratio":  "ratio",
	"server.handler.ms":       "ms",
	"server.hits":             "count",
	"server.misses":           "count",
	"server.rejected":         "count",
	"server.resp_bytes":       "bytes",
	"coord.handler.self_ms":   "ms",
	"coord.retries":           "count",
	"coord.failovers":         "count",
	"coord.hedges":            "count",
	"http.transport.ms":       "ms",
	"trace.pass.ms":           "ms",
	"trace.bench.ms":          "ms",
	"trace.unattributed.ms":   "ms",
	"trace.overhead.ms":       "ms",
}
