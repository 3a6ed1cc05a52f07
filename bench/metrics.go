package bench

import (
	"strings"

	"chex86/internal/pipeline"
)

// Def is one reported metric as BENCHMARK.json declares it. Bound is the
// share of a baseline median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type Def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// HigherBetter reports whether a larger value of the metric is better.
func (d Def) HigherBetter() bool { return d.Better == "higher" }

// EndToEnd lists the metrics an untraced run reports, on every workload:
// the ones that repeat within their bound across runs and seeds on a
// shared host.
var EndToEnd = []Def{
	{"sim_slowdown", "x", "lower", 0},
	{"setup_s", "s", "lower", 0.10},
	{"host_mem_mb", "MB", "lower", 0.10},
}

// PerLayer lists the metrics a traced run reports, on every workload. A
// metric of a layer the workload does not exercise reads 0 (the fabric
// metrics on the sim workloads, the isolated-pass and sim.* metrics on
// fabric-mix, the analysis metrics outside elide-all).
//
// The first five are the host's throughput and latency, taken from the
// traced run's untraced half. They would be end-to-end metrics, but the
// speed of a shared host drifts by more than 10% between runs; they have
// no bound. A cell is one simulation job: one program under one variant
// on the sim workloads, one campaign cell on fabric-mix.
var PerLayer = []Def{
	{"kinst_per_s.insecure", "Kinst/s", "higher", 0},
	{"kinst_per_s.prediction", "Kinst/s", "higher", 0},
	{"cells_per_s", "1/s", "higher", 0},
	{"cell_latency_p50_ms", "ms", "lower", 0},
	{"cell_latency_p90_ms", "ms", "lower", 0},
	{"workload.build_ms", "ms", "lower", 0},
	{"pipeline.newsim_ms", "ms", "lower", 0},
	{"ptrflow.analyze_ms", "ms", "lower", 0},
	{"elide.verify_ms", "ms", "lower", 0},
	{"emu.ns_per_inst", "ns", "lower", 0},
	{"decode.ns_per_inst", "ns", "lower", 0},
	{"cache.ns_per_access", "ns", "lower", 0},
	{"cache.accesses_per_inst", "count", "lower", 0},
	{"pipeline.uop_cache_hit_pct", "%", "higher", 0},
	{"pipeline.ns_per_inst.insecure", "ns", "lower", 0},
	{"pipeline.ns_per_inst.prediction", "ns", "lower", 0},
	{"pipeline.self_ns_per_inst", "ns", "lower", 0},
	{"pipeline.protect_ns_per_inst", "ns", "lower", 0},
	{"host.allocs_per_kinst", "count", "lower", 0},
	{"host.gc_pause_ms", "ms", "lower", 0},
	{"host.calib_score", "iter/us", "higher", 0},
	{"trace_overhead_pct", "%", "lower", 0},
	{"sim.ipc.insecure", "inst/cycle", "higher", 0},
	{"sim.ipc.prediction", "inst/cycle", "higher", 0},
	{"sim.uop_expansion", "uop/inst", "lower", 0},
	{"sim.injected_uops_per_kinst", "uop/Kinst", "lower", 0},
	{"sim.checks_run_per_kinst", "check/Kinst", "lower", 0},
	{"sim.checks_elided_pct", "%", "higher", 0},
	{"sim.gated_mem_per_kinst", "uop/Kinst", "lower", 0},
	{"sim.capcache_miss_pct", "%", "lower", 0},
	{"sim.cap_miss_lat_per_kinst", "cycle/Kinst", "lower", 0},
	{"sim.aliascache_miss_pct", "%", "lower", 0},
	{"sim.alias_walks_per_kinst", "walk/Kinst", "lower", 0},
	{"sim.walk_lat_per_kinst", "cycle/Kinst", "lower", 0},
	{"sim.predictor_mispredict_pct", "%", "lower", 0},
	{"sim.alias_flushes_per_kinst", "flush/Kinst", "lower", 0},
	{"sim.squash_pct", "%", "lower", 0},
	{"sim.allocator_uops_per_kinst", "uop/Kinst", "lower", 0},
	{"sim.branch_mispredict_pct", "%", "lower", 0},
	{"sim.l1d_miss_pct", "%", "lower", 0},
	{"sim.llc_miss_pct", "%", "lower", 0},
	{"sim.dram_bytes_per_inst", "B/inst", "lower", 0},
	{"fabric.queue_wait_ms.p50", "ms", "lower", 0},
	{"fabric.queue_wait_ms.p90", "ms", "lower", 0},
	{"fabric.lease_ms.p50", "ms", "lower", 0},
	{"fabric.lease_empty_pct", "%", "lower", 0},
	{"fabric.complete_ms.p50", "ms", "lower", 0},
	{"fabric.peer_fetch_ms.p50", "ms", "lower", 0},
	{"fabric.peer_hit_pct", "%", "higher", 0},
	{"campaign.exec_ms.p50", "ms", "lower", 0},
	{"campaign.exec_ms.p90", "ms", "lower", 0},
	{"campaign.admission_hit_pct", "%", "higher", 0},
}

// Value is one measured metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// isSimMetric marks the deterministic simulated statistics, which must
// repeat exactly for equal inputs.
func isSimMetric(name string) bool {
	return name == "sim_slowdown" || strings.HasPrefix(name, "sim.")
}

// simTotals sums one variant's pipeline counters over a workload's
// programs, so ratios weight each program by its instruction count.
type simTotals struct {
	cycles, insts, nativeUops, injectedUops  uint64
	checksRun, checksElided, gatedMem        uint64
	capHits, capMisses, capMissLat           uint64
	aliasHits, aliasMisses, aliasWalks       uint64
	walkLat, aliasFlushes, squashCycles      uint64
	allocatorUops, predWrong, predResolved   uint64
	brLookups, brMispred, l1dHits, l1dMisses uint64
	llcHits, llcMisses, dramBytes            uint64
}

func (t *simTotals) add(r *pipeline.Result) {
	t.cycles += r.Cycles
	t.insts += r.MacroInsts
	t.nativeUops += r.NativeUops
	t.injectedUops += r.InjectedUops
	t.checksRun += r.ChecksRun
	t.checksElided += r.ChecksElided
	t.gatedMem += r.GatedMem
	t.capHits += r.CapCache.Hits
	t.capMisses += r.CapCache.Misses
	t.capMissLat += r.CapMissLat
	t.aliasHits += r.AliasCache.Hits
	t.aliasMisses += r.AliasCache.Misses
	t.aliasWalks += r.AliasWalks
	t.walkLat += r.WalkLat
	t.aliasFlushes += r.AliasFlushes
	t.squashCycles += r.SquashCycles
	t.allocatorUops += r.AllocatorUops
	t.predWrong += r.Predictor.Mispredictions()
	t.predResolved += r.Predictor.Correct + r.Predictor.Mispredictions()
	t.brLookups += r.Branch.Lookups
	t.brMispred += r.Branch.Mispredicts()
	t.l1dHits += r.L1D.Hits
	t.l1dMisses += r.L1D.Misses
	t.llcHits += r.LLC.Hits
	t.llcMisses += r.LLC.Misses
	t.dramBytes += r.DRAMBytes
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func pct(num, den uint64) float64 { return 100 * ratio(float64(num), float64(den)) }

func perKinst(n, insts uint64) float64 { return ratio(float64(n), float64(insts)/1000) }

// simMetrics derives the sim.* per-layer metrics: the protection-specific
// ones from the prediction variant, the machine-level ones (branches,
// caches, DRAM) from the insecure baseline both variants share.
func simMetrics(ins, pred *simTotals) map[string]float64 {
	return map[string]float64{
		"sim.ipc.insecure":             ratio(float64(ins.insts), float64(ins.cycles)),
		"sim.ipc.prediction":           ratio(float64(pred.insts), float64(pred.cycles)),
		"sim.uop_expansion":            ratio(float64(pred.nativeUops+pred.injectedUops), float64(pred.insts)),
		"sim.injected_uops_per_kinst":  perKinst(pred.injectedUops, pred.insts),
		"sim.checks_run_per_kinst":     perKinst(pred.checksRun, pred.insts),
		"sim.checks_elided_pct":        pct(pred.checksElided, pred.checksRun+pred.checksElided),
		"sim.gated_mem_per_kinst":      perKinst(pred.gatedMem, pred.insts),
		"sim.capcache_miss_pct":        pct(pred.capMisses, pred.capHits+pred.capMisses),
		"sim.cap_miss_lat_per_kinst":   perKinst(pred.capMissLat, pred.insts),
		"sim.aliascache_miss_pct":      pct(pred.aliasMisses, pred.aliasHits+pred.aliasMisses),
		"sim.alias_walks_per_kinst":    perKinst(pred.aliasWalks, pred.insts),
		"sim.walk_lat_per_kinst":       perKinst(pred.walkLat, pred.insts),
		"sim.predictor_mispredict_pct": pct(pred.predWrong, pred.predResolved),
		"sim.alias_flushes_per_kinst":  perKinst(pred.aliasFlushes, pred.insts),
		"sim.squash_pct":               pct(pred.squashCycles, pred.cycles),
		"sim.allocator_uops_per_kinst": perKinst(pred.allocatorUops, pred.insts),
		"sim.branch_mispredict_pct":    pct(ins.brMispred, ins.brLookups),
		"sim.l1d_miss_pct":             pct(ins.l1dMisses, ins.l1dHits+ins.l1dMisses),
		"sim.llc_miss_pct":             pct(ins.llcMisses, ins.llcHits+ins.llcMisses),
		"sim.dram_bytes_per_inst":      ratio(float64(ins.dramBytes), float64(ins.insts)),
	}
}
