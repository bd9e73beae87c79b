package main

// The metric catalog: every metric the benchmark prints, with its unit,
// the direction that is better, the layer it belongs to, and the
// end-to-end metric (on which workload) it is expected to move. The
// README table and BENCHMARK.json follow this list; a test keeps them in
// step.

// metricDef declares one metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	layer  string // "" for end-to-end metrics
	moves  string // end-to-end metric(s) a change here should move
	where  string // workloads that produce it
}

// Workload names.
const (
	wStencil = "stencil-tcp"
	wLeanMD  = "leanmd-tcp"
	wGate    = "gate-open"
	wSim     = "sim-grid"
)

// jsonEndToEnd are the end-to-end metrics of the final JSON line of an
// untraced run. Every workload reports all three; opMS is each workload's
// headline time (see README.md for what one operation is per workload).
var jsonEndToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", where: "all"},
	{name: "op_ms", unit: "ms", better: "lower", where: "all"},
	{name: "heap_peak_mb", unit: "MB", better: "lower", where: "all"},
}

// detailEndToEnd are the end-to-end metrics named per workload. They are
// printed as "metric" lines by the untraced run; op_ms in the JSON line is
// step_ms, ms per simulated step, or job_p50_ms depending on the workload.
var detailEndToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", where: "all"},
	{name: "step_ms", unit: "ms", better: "lower", where: wStencil + "," + wLeanMD},
	{name: "sim_step_ms", unit: "ms", better: "lower", where: wSim},
	{name: "events_per_s", unit: "1/s", better: "higher", where: wSim},
	{name: "job_p50_ms", unit: "ms", better: "lower", where: wGate},
	{name: "job_p99_ms", unit: "ms", better: "lower", where: wGate},
	{name: "job_p99_ms.light", unit: "ms", better: "lower", where: wGate},
	{name: "max_rate_jobs_s", unit: "1/s", better: "higher", where: wGate},
	{name: "heap_peak_mb", unit: "MB", better: "lower", where: "all"},
	{name: "failed_frac", unit: "ratio", better: "lower", where: "all"},
}

const (
	tcpSteps = "step_ms (" + wStencil + ", " + wLeanMD + ")"
	gateE2E  = "job_p99_ms, max_rate_jobs_s (" + wGate + ")"
	simE2E   = "events_per_s, setup_s (" + wSim + ")"
	tcpBoth  = wStencil + "," + wLeanMD
)

// perLayer are the metrics of the traced run (--trace 1). Every traced
// run prints all of them; a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	// core: scheduler and queues, from the metrics registry.
	{name: "core.handler_us_p50", unit: "us", better: "lower", layer: "core", moves: tcpSteps + ", job_p99_ms (" + wGate + ")", where: tcpBoth + "," + wGate},
	{name: "core.handler_us_p99", unit: "us", better: "lower", layer: "core", moves: tcpSteps + ", job_p99_ms (" + wGate + ")", where: tcpBoth + "," + wGate},
	{name: "core.idle_frac", unit: "ratio", better: "lower", layer: "core", moves: tcpSteps, where: tcpBoth + "," + wGate},
	{name: "core.msgs_per_step", unit: "count", better: "lower", layer: "core", moves: tcpSteps + ", job_p99_ms (" + wGate + ", per job)", where: tcpBoth + "," + wGate},
	{name: "core.queue_depth_hw", unit: "count", better: "lower", layer: "core", moves: tcpSteps + ", job_p99_ms (" + wGate + ")", where: tcpBoth + "," + wGate},
	// core codec: captured wire bodies replayed through the codec.
	{name: "core.codec_encode_us", unit: "us", better: "lower", layer: "core.codec", moves: "step_ms (" + wLeanMD + " strongly, " + wStencil + " slightly)", where: tcpBoth},
	{name: "core.codec_decode_us", unit: "us", better: "lower", layer: "core.codec", moves: "step_ms (" + wLeanMD + " strongly, " + wStencil + " slightly)", where: tcpBoth},
	{name: "core.codec_allocs_per_msg", unit: "count", better: "lower", layer: "core.codec", moves: "step_ms (" + wLeanMD + ")", where: tcpBoth},
	{name: "core.codec_bytes_per_msg", unit: "B", better: "lower", layer: "core.codec", moves: tcpSteps, where: tcpBoth},
	{name: "core.codec_gob_frac", unit: "ratio", better: "lower", layer: "core.codec", moves: "step_ms (" + wLeanMD + ")", where: tcpBoth},
	// vmi: the transport stack and the delay device.
	{name: "vmi.send_us_p50", unit: "us", better: "lower", layer: "vmi", moves: tcpSteps, where: tcpBoth},
	{name: "vmi.send_us_p99", unit: "us", better: "lower", layer: "vmi", moves: tcpSteps, where: tcpBoth},
	{name: "vmi.frames_per_step", unit: "count", better: "lower", layer: "vmi", moves: tcpSteps, where: tcpBoth},
	{name: "vmi.bytes_per_step", unit: "B", better: "lower", layer: "vmi", moves: tcpSteps, where: tcpBoth},
	{name: "vmi.write_batch_bytes_p50", unit: "B", better: "higher", layer: "vmi", moves: tcpSteps, where: tcpBoth},
	{name: "vmi.backpressure_stalls", unit: "count", better: "lower", layer: "vmi", moves: tcpSteps, where: tcpBoth},
	{name: "vmi.delay_occupancy_hw", unit: "count", better: "lower", layer: "vmi", moves: tcpSteps + ", job_p99_ms (" + wGate + ")", where: tcpBoth + "," + wGate},
	// stencil: the paper's first kernel.
	{name: "stencil.seq_step_ms", unit: "ms", better: "lower", layer: "stencil", moves: "step_ms (" + wStencil + ")", where: wStencil},
	{name: "stencil.speedup", unit: "ratio", better: "higher", layer: "stencil", moves: "step_ms (" + wStencil + ")", where: wStencil},
	{name: "stencil.bytes_per_step", unit: "B", better: "lower", layer: "stencil", moves: "step_ms (" + wStencil + "), computed not measured", where: wStencil},
	// leanmd: the paper's second kernel.
	{name: "leanmd.seq_force_ms", unit: "ms", better: "lower", layer: "leanmd", moves: "step_ms (" + wLeanMD + ")", where: wLeanMD},
	{name: "leanmd.speedup", unit: "ratio", better: "higher", layer: "leanmd", moves: "step_ms (" + wLeanMD + ")", where: wLeanMD},
	{name: "leanmd.energy_drift", unit: "ratio", better: "lower", layer: "leanmd", moves: "correctness of " + wLeanMD, where: wLeanMD},
	// sim and topology: the virtual-time engine.
	{name: "sim.seq_events_per_s", unit: "1/s", better: "higher", layer: "sim", moves: simE2E, where: wSim},
	{name: "sim.speedup", unit: "ratio", better: "higher", layer: "sim", moves: simE2E, where: wSim},
	{name: "sim.events", unit: "count", better: "lower", layer: "sim", moves: simE2E, where: wSim},
	{name: "sim.messages", unit: "count", better: "lower", layer: "sim", moves: simE2E, where: wSim},
	{name: "sim.lookahead_us", unit: "us", better: "higher", layer: "sim", moves: simE2E, where: wSim},
	{name: "sim.shards", unit: "count", better: "higher", layer: "sim", moves: simE2E, where: wSim},
	{name: "sim.busy_imbalance", unit: "ratio", better: "lower", layer: "sim", moves: simE2E, where: wSim},
	{name: "sim.new_ms", unit: "ms", better: "lower", layer: "sim", moves: simE2E, where: wSim},
	{name: "topology.build_ms", unit: "ms", better: "lower", layer: "topology", moves: simE2E, where: wSim},
	// taskfarm and gate: the job path.
	{name: "taskfarm.assign_wait_us_p99", unit: "us", better: "lower", layer: "taskfarm", moves: gateE2E, where: wGate},
	{name: "taskfarm.grants_per_job", unit: "ratio", better: "lower", layer: "taskfarm", moves: gateE2E, where: wGate},
	{name: "taskfarm.inject_to_done_ms_p99", unit: "ms", better: "lower", layer: "taskfarm", moves: gateE2E, where: wGate},
	{name: "gate.post_ms_p50", unit: "ms", better: "lower", layer: "gate", moves: gateE2E, where: wGate},
	{name: "gate.post_ms_p99", unit: "ms", better: "lower", layer: "gate", moves: gateE2E, where: wGate},
	{name: "gate.queue_wait_ms_p99", unit: "ms", better: "lower", layer: "gate", moves: gateE2E, where: wGate},
	{name: "gate.jobs_per_injection", unit: "ratio", better: "higher", layer: "gate", moves: gateE2E, where: wGate},
	{name: "gate.gen_late_ms_p99", unit: "ms", better: "lower", layer: "gate", moves: "validity of " + gateE2E, where: wGate},
	{name: "gate.backlog_end", unit: "count", better: "lower", layer: "gate", moves: gateE2E, where: wGate},
	// trace: overlap analysis of the program's own tracer.
	{name: "trace.masked_frac", unit: "ratio", better: "higher", layer: "trace", moves: "explains " + tcpSteps, where: "all"},
	{name: "trace.commwait_frac", unit: "ratio", better: "lower", layer: "trace", moves: "explains " + tcpSteps, where: "all"},
	{name: "trace.compute_frac", unit: "ratio", better: "higher", layer: "trace", moves: "explains " + tcpSteps, where: "all"},
	{name: "trace.critpath_exposed_frac", unit: "ratio", better: "lower", layer: "trace", moves: "explains " + tcpSteps, where: "all"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", layer: "trace", moves: "none (tracing cost)", where: "all"},
}
