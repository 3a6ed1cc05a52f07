package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"

	"chex86/internal/decode"
	"chex86/internal/elide"
	"chex86/internal/pipeline"
	"chex86/internal/ptrflow"
	"chex86/internal/workload"
)

// stepChunk is how many scheduling rounds one timed Sim.Step call covers
// (and how many macro-ops or accesses one isolated-pass chunk covers):
// large enough that reading the clock around it costs nothing measurable,
// small enough that some round runs each chunk undisturbed.
const stepChunk = 4096

// simTrack is the timeline row of the single-threaded sim workloads.
const simTrack = 1

// cell is one simulation job: one program under one variant.
type cell struct {
	prof    *workload.Profile
	variant decode.Variant
	elide   bool // analyze, verify and install the elision map first
}

func (c cell) name() string {
	n := c.prof.Name + "/" + variantName(c.variant)
	if c.elide {
		n += "+elide"
	}
	return n
}

// Set-up steps of a cell, in order.
const (
	stepBuild = iota
	stepAnalyze
	stepVerify
	stepNewSim
	numSetupSteps
)

// cellResult is what running one cell measured. Times are host
// nanoseconds.
type cellResult struct {
	cell     cell
	res      *pipeline.Result
	err      error
	verified bool // elision proof bundle verified (elide cells)

	setupNS       [numSetupSteps]int64
	chunkNS       []int64 // every Sim.Step call
	firstMeasured int     // index of the first chunk that starts past the warmup boundary
	measured      uint64  // macro-ops executed from that chunk on
	gcNS          int64   // the collector's CPU time from that chunk to the last
	resultNS      int64   // Sim.Result
	total         uint64  // macro-ops the simulation's emulator executed
	uopHits       uint64
	uopMisses     uint64
	heapBytes     uint64 // live heap after GC at cell end (memory round only)
}

func (c *cellResult) setup() int64 {
	var s int64
	for _, ns := range c.setupNS {
		s += ns
	}
	return s
}

// simEnv is what every cell of one run shares.
type simEnv struct {
	clock  Clock
	tracer *Tracer // nil outside the traced phase
	scale  float64
}

// runCell builds, sets up and simulates one cell through the public
// pipeline API, timing each call. Statistics exclude the program's
// allocation phase (WarmupInsts = SetupInsts, the SimPoint-style warmup),
// and so does the measured throughput: a Step chunk counts once the
// emulator has passed the warmup boundary at its start.
func (e *simEnv) runCell(c cell, sampleHeap bool) cellResult {
	now, tr, req := e.clock.Now, e.tracer, c.name()
	out := cellResult{cell: c}
	// Each cell starts from a collected heap, so its set-up is not charged
	// for the previous cell's garbage: collecting it there made set-up
	// times scatter by 30% from run to run.
	runtime.GC()
	t0 := now()
	root := tr.Begin("cell", req, 0, simTrack, t0)
	t := t0
	defer func() { tr.Finish(root, t) }()
	timed := func(step int, span string, s int64) {
		t = now()
		tr.Add(span, req, root, simTrack, s, t)
		out.setupNS[step] = t - s
	}

	prog, err := c.prof.Build(e.scale)
	timed(stepBuild, "workload.Build", t0)
	if err != nil {
		out.err = fmt.Errorf("build: %w", err)
		return out
	}

	cfg := pipeline.DefaultConfig()
	cfg.Variant = c.variant
	cfg.WarmupInsts = c.prof.SetupInsts()
	var emap pipeline.ElisionMap
	if c.elide {
		s := t
		an, err := ptrflow.Analyze(prog, ptrflow.Options{Harts: harts(c.prof)})
		timed(stepAnalyze, "ptrflow.Analyze", s)
		if err != nil {
			out.err = fmt.Errorf("analyze: %w", err)
			return out
		}
		s = t
		rep := elide.FromAnalysis(prog, an, elide.Options{Harts: harts(c.prof)})
		timed(stepVerify, "elide.FromAnalysis", s)
		out.verified = rep.Verified
		cfg.ElideChecks = true
		cfg.ElisionDigest = rep.Digest
		cfg.ElisionCtxK = rep.CtxK
		emap = rep.Map
	}

	s := t
	sim, err := pipeline.NewSim(prog, cfg, harts(c.prof))
	if err == nil && c.elide {
		sim.SetElisionMap(emap)
	}
	timed(stepNewSim, "pipeline.NewSim", s)
	if err != nil {
		out.err = fmt.Errorf("new sim: %w", err)
		return out
	}

	out.firstMeasured = -1
	var gc0 int64
	for {
		before := sim.M.TotalInsts()
		if out.firstMeasured < 0 && before >= cfg.WarmupInsts {
			out.firstMeasured = len(out.chunkNS)
			gc0 = gcCPU()
		}
		s = now()
		done, err := sim.Step(stepChunk)
		t = now()
		tr.Add("pipeline.Step", req, root, simTrack, s, t)
		out.chunkNS = append(out.chunkNS, t-s)
		if out.firstMeasured >= 0 {
			out.measured += sim.M.TotalInsts() - before
		}
		if err != nil {
			out.err = fmt.Errorf("step: %w", err)
			break
		}
		if done {
			break
		}
	}
	if out.firstMeasured < 0 {
		out.firstMeasured = len(out.chunkNS)
	} else {
		out.gcNS = gcCPU() - gc0
	}
	s = now()
	out.res = sim.Result()
	t = now()
	tr.Add("pipeline.Result", req, root, simTrack, s, t)
	out.resultNS = t - s
	out.total = sim.M.TotalInsts()
	uc := sim.UopCacheStats()
	out.uopHits, out.uopMisses = uc.Hits, uc.Misses
	if sampleHeap {
		// The finished Sim is still reachable here, so the live heap after
		// a full collection is the cell's peak footprint.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		out.heapBytes = ms.HeapAlloc
		runtime.KeepAlive(sim)
	}
	return out
}

// gcCPU returns the garbage collector's CPU time so far in nanoseconds,
// without idle-priority marking, which only uses otherwise idle cores. The
// runtime updates it at the end of each collection cycle.
func gcCPU() int64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/gc/mark/idle:cpu-seconds"}}
	metrics.Read(s)
	return int64((s[0].Value.Float64() - s[1].Value.Float64()) * 1e9)
}

// timings keeps, for each cell, every round's time of each piece of its
// work, and prices each cell by
//
//	the least-disturbed time of each piece (its minimum over the rounds)
//	+ the collector's CPU time per round (its mean over the rounds).
//
// Every round repeats identical work (the repeat check holds each cell's
// Result byte-identical), so a piece's time over the rounds varies only
// with the host. On the 2-core shared host this benchmark was built on,
// other tenants change the speed of identical work by up to 1.8x for
// seconds to minutes at a time; per-chunk medians of one seed's runs
// scattered by 30%, per-chunk minima by a few percent. The collector's
// work is the one cost the program itself places at random, so it is
// added back as a mean: a change that allocates or retains more is still
// charged for it.
type timings map[string]*cellTimings

type cellTimings struct {
	cell          cell
	firstMeasured int
	measured      uint64
	setupNS       [numSetupSteps][]float64
	chunkNS       [][]float64 // chunkNS[k]: Step chunk k in every round
	resultNS      []float64
	gcNS          []float64
}

// stepNS is the cell's price for its measured Step chunks.
func (c *cellTimings) stepNS() float64 {
	ns := mean(c.gcNS)
	for _, xs := range c.chunkNS[c.firstMeasured:] {
		ns += slices.Min(xs)
	}
	return ns
}

// jobNS is the cell's price for the whole job: set-up, every Step chunk
// and Sim.Result.
func (c *cellTimings) jobNS() float64 {
	ns := c.stepNS() + slices.Min(c.resultNS)
	for _, xs := range c.setupNS {
		ns += slices.Min(xs)
	}
	for _, xs := range c.chunkNS[:c.firstMeasured] {
		ns += slices.Min(xs)
	}
	return ns
}

func timingsOf(rounds []round) timings {
	t := timings{}
	for _, rd := range rounds {
		for i := range rd.cells {
			c := &rd.cells[i]
			if c.err != nil {
				continue
			}
			ct, ok := t[c.cell.name()]
			if !ok {
				ct = &cellTimings{cell: c.cell, firstMeasured: c.firstMeasured, measured: c.measured}
				t[c.cell.name()] = ct
			}
			for k, ns := range c.setupNS {
				ct.setupNS[k] = append(ct.setupNS[k], float64(ns))
			}
			ct.resultNS = append(ct.resultNS, float64(c.resultNS))
			ct.gcNS = append(ct.gcNS, float64(c.gcNS))
			for k, ns := range c.chunkNS {
				if k == len(ct.chunkNS) {
					ct.chunkNS = append(ct.chunkNS, nil)
				}
				ct.chunkNS[k] = append(ct.chunkNS[k], float64(ns))
			}
		}
	}
	return t
}

// kinst returns Kinst/s over the measured Step chunks of the cells keep
// selects.
func (t timings) kinst(keep func(cell) bool) float64 {
	var insts uint64
	var ns float64
	for _, name := range sortedKeys(t) {
		c := t[name]
		if keep(c.cell) {
			insts += c.measured
			ns += c.stepNS()
		}
	}
	return ratio(float64(insts)*1e6, ns)
}

// latencies returns each cell's price for its whole job in milliseconds.
func (t timings) latencies() []float64 {
	var out []float64
	for _, name := range sortedKeys(t) {
		out = append(out, t[name].jobNS()/1e6)
	}
	return out
}

func isVariant(v decode.Variant) func(cell) bool {
	return func(c cell) bool { return c.variant == v }
}

func anyCell(cell) bool { return true }

// simRun is one run of a sim workload.
type simRun struct {
	env      simEnv
	w        simWorkload
	profiles []*workload.Profile
	tally    tally
	first    map[string][]byte // each cell's first Result, for the repeat check
}

func newSimRun(opts *Options, w simWorkload) *simRun {
	r := &simRun{
		env:   simEnv{clock: opts.Clock, scale: w.scale * opts.scale()},
		w:     w,
		first: map[string][]byte{},
	}
	for _, name := range w.programs {
		r.profiles = append(r.profiles, Profile(name, opts.Seed))
	}
	return r
}

// cells lists one round: each program under insecure then prediction. The
// first round of elide-all also runs prediction without the map, which
// the elision check needs.
func (r *simRun) cells(first bool) []cell {
	var out []cell
	for _, p := range r.profiles {
		out = append(out, cell{prof: p, variant: decode.VariantInsecure})
		if r.w.elide && first {
			out = append(out, cell{prof: p, variant: decode.VariantMicrocodePrediction})
		}
		out = append(out, cell{prof: p, variant: decode.VariantMicrocodePrediction, elide: r.w.elide})
	}
	return out
}

// round is one pass over the workload's cells.
type round struct {
	cells []cellResult
}

// runRound runs and checks one round.
func (r *simRun) runRound(first bool) round {
	var rd round
	for _, c := range r.cells(first) {
		rd.cells = append(rd.cells, r.env.runCell(c, first))
	}
	r.check(rd)
	return rd
}

// check applies every per-cell correctness check of a round.
func (r *simRun) check(rd round) {
	insecure := map[string]*cellResult{}
	plain := map[string]*cellResult{}
	for i := range rd.cells {
		cr := &rd.cells[i]
		switch {
		case cr.cell.variant == decode.VariantInsecure:
			insecure[cr.cell.prof.Name] = cr
		case !cr.cell.elide:
			plain[cr.cell.prof.Name] = cr
		}
	}
	for i := range rd.cells {
		cr := &rd.cells[i]
		errs := []error{checkRun(cr.res, cr.err)}
		if errs[0] == nil {
			errs = append(errs, r.checkRepeat(cr))
			if base := insecure[cr.cell.prof.Name]; cr.cell.variant != decode.VariantInsecure && base != nil && base.res != nil {
				errs = append(errs, checkSameInsts(base.res.MacroInsts, cr.res.MacroInsts))
			}
			if off := plain[cr.cell.prof.Name]; cr.cell.elide && off != nil && off.res != nil {
				errs = append(errs, checkElision(cr.verified, off.res, cr.res))
			}
		}
		r.tally.op(cr.cell.name(), errs...)
	}
}

// checkRepeat compares a cell's Result with the first time the run
// simulated that cell: equal inputs must give byte-identical statistics,
// traced or not.
func (r *simRun) checkRepeat(cr *cellResult) error {
	data, err := json.Marshal(cr.res)
	if err != nil {
		return fmt.Errorf("marshal result: %w", err)
	}
	first, ok := r.first[cr.cell.name()]
	if !ok {
		r.first[cr.cell.name()] = data
		return nil
	}
	return checkRepeat(first, data)
}

// timedRounds runs rounds until budget nanoseconds have passed, at least
// one.
func (r *simRun) timedRounds(budget int64) []round {
	var rounds []round
	start := r.env.clock.Now()
	for len(rounds) == 0 || r.env.clock.Now()-start < budget {
		rounds = append(rounds, r.runRound(false))
	}
	return rounds
}

// endToEnd derives the end-to-end metrics from the memory round, the
// round of committed profiles and the timed rounds.
func (r *simRun) endToEnd(mem, committed round, timed []round, samples map[string]int) map[string]float64 {
	var heap uint64
	for _, c := range mem.cells {
		heap = max(heap, c.heapBytes)
	}
	var setup []float64
	for _, rd := range timed {
		var s int64
		for i := range rd.cells {
			s += rd.cells[i].setup()
		}
		setup = append(setup, float64(s)/1e9)
	}
	samples["rounds"] = len(timed)
	return map[string]float64{
		"sim_slowdown": slowdown(pairs(committed, r.w.elide)),
		"setup_s":      Median(setup),
		"host_mem_mb":  float64(heap) / 1e6,
	}
}

// hostMetrics derives the host's throughput and latency from untraced
// rounds. The cells of a round run one after another, so cells per second
// is the cell count over the cells' summed job prices, and the latency
// percentiles are over the workload's distinct cells: they describe its
// spread of job sizes.
func hostMetrics(rounds []round) map[string]float64 {
	t := timingsOf(rounds)
	lat := t.latencies()
	var total float64
	for _, l := range lat {
		total += l / 1e3
	}
	return map[string]float64{
		"kinst_per_s.insecure":   t.kinst(isVariant(decode.VariantInsecure)),
		"kinst_per_s.prediction": t.kinst(isVariant(decode.VariantMicrocodePrediction)),
		"cells_per_s":            ratio(float64(len(lat)), total),
		"cell_latency_p50_ms":    Percentile(lat, 50),
		"cell_latency_p90_ms":    Percentile(lat, 90),
	}
}

// pairs returns, per program of rd in order, the insecure Result and the
// measured prediction Result (the elided one when elide), skipping
// programs that lack either.
func pairs(rd round, elide bool) [][2]*pipeline.Result {
	var out [][2]*pipeline.Result
	index := map[string]int{}
	for i := range rd.cells {
		c := &rd.cells[i]
		k, ok := index[c.cell.prof.Name]
		if !ok {
			k = len(out)
			index[c.cell.prof.Name] = k
			out = append(out, [2]*pipeline.Result{})
		}
		switch {
		case c.cell.variant == decode.VariantInsecure:
			out[k][0] = c.res
		case c.cell.elide == elide:
			out[k][1] = c.res
		}
	}
	kept := out[:0]
	for _, pr := range out {
		if pr[0] != nil && pr[1] != nil {
			kept = append(kept, pr)
		}
	}
	return kept
}

// slowdown is the paper's Fig. 6 quantity: the geometric mean over
// programs of prediction cycles over insecure cycles.
func slowdown(prs [][2]*pipeline.Result) float64 {
	var ratios []float64
	for _, pr := range prs {
		if pr[0].Cycles > 0 {
			ratios = append(ratios, float64(pr[1].Cycles)/float64(pr[0].Cycles))
		}
	}
	return Geomean(ratios)
}

// perLayer derives the per-layer metrics of a traced run from its
// untraced rounds, its traced rounds, the isolated passes and, for the
// simulated statistics, the round of committed profiles.
func (r *simRun) perLayer(committed round, untraced, traced []round, passes passTotals, host hostDelta) map[string]float64 {
	m := hostMetrics(untraced)
	tt := timingsOf(traced)
	var steps [numSetupSteps][]float64
	var total, hits, lookups uint64
	for _, name := range sortedKeys(tt) {
		c := tt[name]
		for k, xs := range c.setupNS {
			if k == stepBuild || k == stepNewSim || c.cell.elide {
				steps[k] = append(steps[k], slices.Min(xs)/1e6)
			}
		}
	}
	for _, rd := range traced {
		for _, c := range rd.cells {
			total += c.total
			hits += c.uopHits
			lookups += c.uopHits + c.uopMisses
		}
	}
	m["workload.build_ms"] = mean(steps[stepBuild])
	m["pipeline.newsim_ms"] = mean(steps[stepNewSim])
	m["ptrflow.analyze_ms"] = mean(steps[stepAnalyze])
	m["elide.verify_ms"] = mean(steps[stepVerify])
	m["pipeline.uop_cache_hit_pct"] = pct(hits, lookups)

	insPer := ratio(1e6, tt.kinst(isVariant(decode.VariantInsecure)))
	predPer := ratio(1e6, tt.kinst(isVariant(decode.VariantMicrocodePrediction)))
	m["pipeline.ns_per_inst.insecure"] = insPer
	m["pipeline.ns_per_inst.prediction"] = predPer
	m["pipeline.protect_ns_per_inst"] = predPer - insPer
	for k, v := range passes.metrics() {
		m[k] = v
	}
	m["pipeline.self_ns_per_inst"] = insPer - m["emu.ns_per_inst"] - m["decode.ns_per_inst"] -
		m["cache.ns_per_access"]*m["cache.accesses_per_inst"]
	m["host.allocs_per_kinst"] = perKinst(host.mallocs, total)
	m["host.gc_pause_ms"] = float64(host.pauseNS) / 1e6
	m["trace_overhead_pct"] = 100 * (ratio(timingsOf(untraced).kinst(anyCell), tt.kinst(anyCell)) - 1)

	var ins, pred simTotals
	for _, pr := range pairs(committed, r.w.elide) {
		ins.add(pr[0])
		pred.add(pr[1])
	}
	for k, v := range simMetrics(&ins, &pred) {
		m[k] = v
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// hostDelta is the Go runtime's allocation and GC-pause count over a
// measured phase.
type hostDelta struct {
	mallocs uint64
	pauseNS uint64
}

func readHost() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func hostSince(before runtime.MemStats) hostDelta {
	after := readHost()
	return hostDelta{mallocs: after.Mallocs - before.Mallocs, pauseNS: after.PauseTotalNs - before.PauseTotalNs}
}

// committedRound returns an untimed, checked round of the workload's
// programs at their committed profiles: mem itself at seed 0, a round of
// its own otherwise. The simulated metrics come from it, so they are the
// paper's quantities on the catalog programs and repeat exactly across
// seeds; the seed's profiles change only what the host times.
func (r *simRun) committedRound(opts *Options, mem round) round {
	if opts.Seed == 0 {
		return mem
	}
	o := *opts
	o.Seed = 0
	c := newSimRun(&o, r.w)
	rd := c.runRound(true)
	r.tally.merge(c.tally)
	return rd
}

// runSimWorkload runs a sim workload: one untimed first round that warms
// the host, samples memory and runs the one-time checks, the round of
// committed profiles, then timed rounds for the budget. A traced run
// splits the budget between untraced and traced rounds and then runs the
// isolated passes.
func runSimWorkload(opts *Options, w simWorkload, rec *Record) *Tracer {
	r := newSimRun(opts, w)
	budget := int64(opts.Seconds * 1e9)
	mem := r.runRound(true)
	committed := r.committedRound(opts, mem)
	var tr *Tracer
	if !opts.Trace {
		timed := r.timedRounds(budget)
		rec.setMetrics(EndToEnd, r.endToEnd(mem, committed, timed, rec.Samples))
	} else {
		untraced := r.timedRounds(budget * 45 / 100)
		tr = &Tracer{}
		r.env.tracer = tr
		before := readHost()
		traced := r.timedRounds(budget * 45 / 100)
		host := hostSince(before)
		passes := r.runPasses(traced[len(traced)-1])
		rec.Samples["rounds"] = len(untraced) + len(traced)
		rec.setMetrics(PerLayer, r.perLayer(committed, untraced, traced, passes, host))
	}
	rec.Attempted, rec.Failed, rec.Failures = r.tally.attempted, r.tally.failed, r.tally.failures
	return tr
}
