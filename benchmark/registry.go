package main

// metricDef names one metric the harness emits.  The end-to-end list and
// the per-layer list below are the code's registry; BENCHMARK.json repeats
// them (with the regression bounds, which live only there) and the smoke
// test fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// On is the kind of workload ("engine", "service", or "" for both) on
	// which the metric is what a user pays for and a claim may quote it.  On
	// the other kind it is still true and still bounded, but the report
	// marks it as a stand-in the acceptance contract asked for.
	On string
	// Exact marks a statistic that is a pure function of the workload seed
	// on the engine workloads: there -compare demands bit equality when
	// both result files were made with the same seed and scale, whatever
	// the bound says.
	Exact bool
}

// endToEnd are the numbers a user of the system pays for.  The acceptance
// contract has every workload report every one of them, so each is defined
// to be true on both kinds of workload: an engine op (one NewMachine +
// RunContext) and a service op (one POST /v1/jobs?wait=1 answered with a
// terminal document) are both jobs with a latency, and a service job that
// ran the engine expanded nodes at some efficiency.  benchmark/README.md
// says which metric is a claim's to quote on which workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "nodes_per_s", Unit: "1/s", Better: "higher", On: "engine"},
	{Name: "sim_efficiency", Unit: "ratio", Better: "higher", On: "engine", Exact: true},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", On: "service"},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", On: "service"},
	{Name: "latency_ms_tail", Unit: "ms", Better: "lower", On: "service"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "ok_share", Unit: "ratio", Better: "higher", Exact: true},
}

// latency_ms_tail is the highest percentile of op latency a run can stand
// behind.  A service run answers 6-35 thousand jobs, so there it is the
// 99th.  An engine run has 6-40 ops: a "99th percentile" of those is the
// slowest op and repeats no better than one sample does, so there it is the
// upper quartile.  The name says neither, the report prints which.
const (
	serviceTailPercentile = 99
	engineTailPercentile  = 75
)

// failLatencyMS is the latency a failed op is recorded with: beyond any
// bound, so a failed op misses every latency figure it can reach.
const failLatencyMS = 60_000

// perLayer are the traced run's numbers, named <module>.<metric>.  A
// workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "simd.expand_s", Unit: "s", Better: "lower"},
	{Name: "simd.cycles", Unit: "count", Better: "lower"},
	{Name: "simd.expand_ns_per_node", Unit: "ns", Better: "lower"},
	{Name: "simd.expand_share", Unit: "ratio", Better: "lower"},
	{Name: "simd.flags_s", Unit: "s", Better: "lower"},
	{Name: "simd.lb_phases", Unit: "count", Better: "lower"},
	{Name: "simd.lb_share", Unit: "ratio", Better: "lower"},
	{Name: "simd.newmachine_s", Unit: "s", Better: "lower"},
	{Name: "simd.workers_speedup", Unit: "ratio", Better: "higher"},
	{Name: "simd.pool_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "simd.overhead_x", Unit: "ratio", Better: "lower"},
	{Name: "search.dfs_nodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "search.expands", Unit: "count", Better: "lower"},
	{Name: "trigger.eval_s", Unit: "s", Better: "lower"},
	{Name: "trigger.evals", Unit: "count", Better: "lower"},
	{Name: "trigger.fire_share", Unit: "ratio", Better: "lower"},
	{Name: "match.match_s", Unit: "s", Better: "lower"},
	{Name: "match.calls", Unit: "count", Better: "lower"},
	{Name: "match.pairs", Unit: "count", Better: "lower"},
	{Name: "match.pair_share", Unit: "ratio", Better: "higher"},
	{Name: "stack.transfer_s", Unit: "s", Better: "lower"},
	{Name: "stack.transfers", Unit: "count", Better: "lower"},
	{Name: "stack.nodes_moved", Unit: "count", Better: "lower"},
	{Name: "stack.transfer_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "steal.driver_self_s", Unit: "s", Better: "lower"},
	{Name: "steal.split_s", Unit: "s", Better: "lower"},
	{Name: "steal.absorb_s", Unit: "s", Better: "lower"},
	{Name: "steal.frames", Unit: "count", Better: "lower"},
	{Name: "steal.frame_bytes", Unit: "bytes", Better: "lower"},
	{Name: "checkpoint.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.encode_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.decode_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "bytes", Better: "lower"},
	{Name: "spill.barrier_s", Unit: "s", Better: "lower"},
	{Name: "spill.sweep_s", Unit: "s", Better: "lower"},
	{Name: "spill.faultall_s", Unit: "s", Better: "lower"},
	{Name: "spill.share", Unit: "ratio", Better: "lower"},
	{Name: "spill.evictions", Unit: "count", Better: "lower"},
	{Name: "spill.faults", Unit: "count", Better: "lower"},
	{Name: "spill.bytes_written", Unit: "bytes", Better: "lower"},
	{Name: "spill.bytes_read", Unit: "bytes", Better: "lower"},
	{Name: "spill.us_per_evict", Unit: "us", Better: "lower"},
	{Name: "spill.slowdown_x", Unit: "ratio", Better: "lower"},
	{Name: "server.queue_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.queue_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "server.run_share", Unit: "ratio", Better: "lower"},
	{Name: "server.path_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.path_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "server.jobs_rejected", Unit: "count", Better: "lower"},
	{Name: "server.resp_bytes_per_job", Unit: "bytes", Better: "lower"},
	{Name: "server.worker_utilization", Unit: "ratio", Better: "higher"},
	{Name: "traffic.collapse_share", Unit: "ratio", Better: "higher"},
	{Name: "traffic.estimate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "build.compile_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// workloadDef is one entry of the workload table: exactly one of engine
// and service is set.
type workloadDef struct {
	Name    string
	Why     string
	engine  *engineShape
	service *serviceShape
}

// workloads is the benchmark of record's workload table, in run order.
// The "why" strings are the one-sentence reasons BENCHMARK.json and the
// README carry.
var workloads = []workloadDef{
	{
		Name:   "wide-expand",
		Why:    "P=8192 GP-DK W=20M Workers=1: the researcher's run; expansion is most of host time, so an expansion or SoA change shows here and a matcher change barely",
		engine: &engineShape{P: 8192, W: 20_000_000, Scheme: "GP-DK", Workers: 1, Trees: 2, WarmDiv: 4},
	},
	{
		// On every core the same Workers=2 op takes 0.60, 0.95 or 1.25 s,
		// for minutes at a time, by whether the kernel wakes the second
		// worker's thread on the waker's core or on the idle one and how
		// long the VM takes to wake that; two back-to-back runs of identical
		// code differed by 38 %.  No bound can gate that, so the ops run on
		// one P, where the pool's goroutine handoff is all that is left of
		// it and repeats within 2 %.  What the handoff costs between cores
		// is in the traced pass (simd.workers_speedup, simd.pool_ns_per_cycle).
		Name:   "pool-small-p",
		Why:    "P=256 GP-DK W=8M Workers=2 on one P: ~32k cycles of ~256 expansions, each paying the worker pool's handoff for no gain; the other engine workloads run Workers=1 and must not move with it",
		engine: &engineShape{P: 256, W: 8_000_000, Scheme: "GP-DK", Workers: 2, Procs: 1, Trees: 4, WarmDiv: 1},
	},
	{
		Name:   "lb-storm",
		Why:    "P=65536 nGP-S1.00 W=2M Workers=1: ~90 cycles, ~85 phases, ~700k transfers; flag fills, matching and transfers are about half of host time and NewMachine at P=65536 is visible",
		engine: &engineShape{P: 65536, W: 2_000_000, Scheme: "nGP-S1.00", Workers: 1, Trees: 8, WarmDiv: 1},
	},
	{
		Name:   "spill-tight",
		Why:    "P=256 GP-DK W=400k MemBudget=8448: ~27k evictions and faults through spill.Manager; the same stack.Arena used the other way (DropBottom/Prepend beside push/pop)",
		engine: &engineShape{P: 256, W: 400_000, Scheme: "GP-DK", Workers: 1, MemBudget: 8448, Trees: 4, WarmDiv: 1},
	},
	{
		Name:    "serve-unique",
		Why:     "real simdserve, closed loop, 2 keep-alive clients, every spec unique: each job misses the cache and runs the engine, so run time is ~90% of latency",
		service: &serviceShape{HotShare: 0},
	},
	{
		Name:    "serve-hot",
		Why:     "same server and generator, 256 hot specs pre-submitted, 90% hot / 10% fresh: cache hits make the request path (canonicalise, hash, lookup, admit, encode, HTTP) nearly all of latency",
		service: &serviceShape{HotShare: 0.9, HotSpecs: 256},
	},
}

// kind is "engine" or "service".
func (w *workloadDef) kind() string {
	if w.engine != nil {
		return "engine"
	}
	return "service"
}

// findWorkload returns the workload and its position in the table (the
// stream its input seeds are derived on), or nil.
func findWorkload(name string) (*workloadDef, int) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], i
		}
	}
	return nil, 0
}
