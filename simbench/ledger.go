package main

import (
	"time"

	"babelfish/internal/sim"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"host_ns_per_instr", "ns", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"containers_per_s", "1/s", "higher"},
	{"wave_ms_p50", "ms", "lower"},
	{"wave_ms_p90", "ms", "lower"},
	{"epochs_per_s", "1/s", "higher"},
	{"epoch_ms_p50", "ms", "lower"},
	{"sim_cpi", "cycles/instr", "lower"},
	{"req_p50_cycles", "cycles", "lower"},
	{"req_p99_cycles", "cycles", "lower"},
	{"served_frac", "ratio", "higher"},
}

// perLayer lists the per-layer ledger every traced run reports. Layers
// a workload does not reach read 0.
var perLayer = []metricDef{
	// The epoch tail does not repeat within a tenth from run to run, so it
	// is reported here, beside the ledger, rather than gated.
	{"epoch_ms_p99", "ms", "lower"},
	{"workloads.gen_ns_per_step", "ns", "lower"},
	{"workloads.gen_share", "ratio", "lower"},
	{"workloads.steps", "count", "lower"},
	{"workloads.spawn_ms", "ms", "lower"},
	{"cache.data_ns_per_access", "ns", "lower"},
	{"cache.data_share", "ratio", "lower"},
	{"cache.accesses_per_instr", "1/instr", "lower"},
	{"cache.l1d_hit_ratio", "ratio", "higher"},
	{"cache.l2_hit_ratio", "ratio", "higher"},
	{"cache.l3_hit_ratio", "ratio", "higher"},
	{"dram.accesses_per_kinstr", "1/kinstr", "lower"},
	{"dram.row_hit_ratio", "ratio", "higher"},
	{"mmu.walk_ns_per_ref", "ns", "lower"},
	{"mmu.walk_refs_per_kinstr", "1/kinstr", "lower"},
	{"mmu.walk_share", "ratio", "lower"},
	{"tlb.l1d_hit_ratio", "ratio", "higher"},
	{"tlb.l2_mpki", "1/kinstr", "lower"},
	{"tlb.l2_shared_hit_frac", "ratio", "higher"},
	{"pwc.hit_ratio", "ratio", "higher"},
	{"kernel.fork_us", "us", "lower"},
	{"kernel.exit_us", "us", "lower"},
	{"kernel.prefault_ms", "ms", "lower"},
	{"kernel.minor_faults_per_kinstr", "1/kinstr", "lower"},
	{"kernel.link_faults_per_kinstr", "1/kinstr", "lower"},
	{"kernel.cow_faults_per_kinstr", "1/kinstr", "lower"},
	{"kernel.shootdowns", "count", "lower"},
	{"kernel.oom_kills", "count", "lower"},
	{"physmem.peak_frames", "frames", "lower"},
	{"sim.self_ns_per_instr", "ns", "lower"},
	{"sim.self_share", "ratio", "lower"},
	{"sim.cpu_util", "ratio", "higher"},
	{"sim.cpu_ns_per_instr", "ns", "lower"},
	{"sim.core_instr_imbalance", "ratio", "lower"},
	{"fleet.audit_ms", "ms", "lower"},
	{"fleet.cpu_util", "ratio", "higher"},
	{"fleet.crashes", "count", "lower"},
	{"fleet.condemned", "count", "lower"},
	{"fleet.requeues", "count", "lower"},
	{"fleet.placements", "count", "lower"},
	{"loadgen.offered", "count", "higher"},
	{"fleet.dropped", "count", "lower"},
	{"fleet.queue_delay_p99_epochs", "epochs", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.alloc_bytes_per_instr", "B/instr", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.heap_peak_mib", "MiB", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.clock_ns", "ns", "lower"},
	{"profile.workloads_share", "ratio", "lower"},
	{"profile.cache_share", "ratio", "lower"},
	{"profile.mmu_share", "ratio", "lower"},
	{"profile.kernel_share", "ratio", "lower"},
	{"profile.sim_share", "ratio", "lower"},
	{"profile.fleet_share", "ratio", "lower"},
	{"profile.runtime_share", "ratio", "lower"},
	{"profile.bench_share", "ratio", "lower"},
	{"profile.other_share", "ratio", "lower"},
	{"profile.samples", "count", "higher"},
}

// regSum sums a registry statistic over machines.
func regSum(ms []*sim.Machine, name string) float64 {
	var s float64
	for _, m := range ms {
		v, _ := m.Registry.Value(name)
		s += v
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger computes the per-layer metrics of a traced run's measured phase.
//
// Layer host times are measured only at the calls the benchmark makes or
// wraps: generator calls (every call timed), data-port and walk-port
// accesses (1 in sampleEvery timed, scaled to the call count). Shares
// are of the measured phase's process CPU time, because the probed calls
// run on every stepping thread (graph's shards, fleet's node workers).
// sim.self is that CPU time minus the three timed layers, so it holds
// the scheduler, TLB/PWC/policy lookups, in-run fault handling, the Go
// runtime's own threads and, for fleet, the control plane.
func ledger(e *runEnv) map[string]float64 {
	tr, ms := e.tr, e.machines
	busy := float64(e.cpu1 - e.cpu0)
	_, instrs64 := e.simTotals()
	instrs := float64(instrs64)
	pt := tr.totals(e.clockNS)
	reg := func(n string) float64 { return regSum(ms, n) }
	perK := func(n float64) float64 { return 1000 * ratio(n, instrs) }
	msOf := func(d time.Duration) float64 { return float64(d) / 1e6 }
	usMedian := func(name string) float64 {
		ds := tr.durations(name)
		if len(ds) == 0 {
			return 0
		}
		return float64(medianDuration(ds)) / 1e3
	}

	self := busy - pt.genNS - pt.dataNS - pt.walkNS
	l := map[string]float64{
		"workloads.gen_ns_per_step": ratio(pt.genNS, float64(pt.genSteps)),
		"workloads.gen_share":       ratio(pt.genNS, busy),
		"workloads.steps":           float64(pt.genSteps),
		"workloads.spawn_ms":        msOf(tr.total("spawn")),

		"cache.data_ns_per_access": pt.dataPerCallNS,
		"cache.data_share":         ratio(pt.dataNS, busy),
		"cache.accesses_per_instr": ratio(float64(pt.dataCalls), instrs),
		"cache.l1d_hit_ratio":      ratio(reg("cache.l1d.hits"), reg("cache.l1d.accesses")),
		"cache.l2_hit_ratio":       ratio(reg("cache.l2.hits"), reg("cache.l2.accesses")),
		"cache.l3_hit_ratio":       ratio(reg("cache.l3.hits"), reg("cache.l3.accesses")),
		"dram.accesses_per_kinstr": perK(reg("dram.reads") + reg("dram.writes")),
		"dram.row_hit_ratio":       ratio(reg("dram.row_hits"), reg("dram.row_hits")+reg("dram.row_misses")),

		"mmu.walk_ns_per_ref":      pt.walkPerCallNS,
		"mmu.walk_refs_per_kinstr": perK(float64(pt.walkCalls)),
		"mmu.walk_share":           ratio(pt.walkNS, busy),
		"tlb.l1d_hit_ratio":        ratio(reg("tlb.l1d.hits"), reg("tlb.l1d.accesses")),
		"tlb.l2_mpki":              perK(reg("mmu.l2_misses")),
		"tlb.l2_shared_hit_frac":   ratio(reg("mmu.l2_shared_data")+reg("mmu.l2_shared_instr"), reg("mmu.l2_hits")),
		"pwc.hit_ratio":            ratio(reg("pwc.hits"), reg("pwc.accesses")),

		"kernel.fork_us":                 usMedian("spawn"),
		"kernel.exit_us":                 usMedian("exit"),
		"kernel.prefault_ms":             msOf(tr.total("prefault")),
		"kernel.minor_faults_per_kinstr": perK(reg("kernel.minor_faults")),
		"kernel.link_faults_per_kinstr":  perK(reg("kernel.link_faults")),
		"kernel.cow_faults_per_kinstr":   perK(reg("kernel.cow_faults")),
		"kernel.shootdowns":              reg("kernel.shootdowns"),
		"kernel.oom_kills":               reg("sim.oom_kills"),
		"physmem.peak_frames":            reg("phys.frames_peak"),

		"sim.self_ns_per_instr":         ratio(self, instrs),
		"sim.self_share":                ratio(self, busy),
		"sim.cpu_util":                  ratio(busy, e.res.MeasureS*1e9),
		"sim.core_instr_imbalance":      coreImbalance(ms),
		"runtime.gc_cpu_frac":           ratio(e.rt1.gcCPU-e.rt0.gcCPU, e.rt1.totalCPU-e.rt0.totalCPU),
		"runtime.alloc_bytes_per_instr": ratio(float64(e.rt1.allocBytes-e.rt0.allocBytes), instrs),
		"runtime.gc_cycles":             float64(e.rt1.gcCycles - e.rt0.gcCycles),
		"runtime.heap_peak_mib":         e.heapPeak,
		"bench.clock_ns":                e.clockNS,
	}
	for k, v := range e.extra {
		l[k] = v
	}
	return l
}

// coreImbalance is the largest over the smallest per-core instruction
// count across the run's machines (1 = balanced).
func coreImbalance(ms []*sim.Machine) float64 {
	var lo, hi uint64
	first := true
	for _, m := range ms {
		for _, c := range m.Cores {
			if first || c.Instrs < lo {
				lo = c.Instrs
			}
			if first || c.Instrs > hi {
				hi = c.Instrs
			}
			first = false
		}
	}
	return ratio(float64(hi), float64(lo))
}
