package pipeline

import (
	"context"
	"fmt"

	"chex86/internal/asm"
	"chex86/internal/branch"
	"chex86/internal/cache"
	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/emu"
	"chex86/internal/heap"
	"chex86/internal/isa"
	"chex86/internal/mem"
	"chex86/internal/tracker"
)

// Result aggregates a simulation run's outcome for the paper's figures.
type Result struct {
	Variant decode.Variant

	// Timing.
	Cycles        uint64
	MacroInsts    uint64
	NativeUops    uint64
	InjectedUops  uint64
	SquashCycles  uint64
	Redirects     uint64
	AliasFlushes  uint64
	MSROMMacros   uint64
	AllocatorUops uint64
	CapMissLat    uint64 // aggregate shadow-table latency on capability checks
	WalkLat       uint64 // aggregate alias-table walk latency
	ChecksRun     uint64 // functional capability checks performed
	ChecksElided  uint64 // checks suppressed at proven-safe sites
	GatedMem      uint64 // memory uops gated on a capability-check token

	// Structures.
	CapCache   cache.Stats
	AliasCache cache.Stats
	Predictor  tracker.PredictorStats
	Engine     tracker.EngineStats
	Branch     branch.Stats
	L1D        cache.Stats
	L1I        cache.Stats
	L2         cache.Stats
	LLC        cache.Stats
	ShadowC    cache.Stats
	TLB        mem.TLBStats

	// Memory system.
	DRAMBytes   uint64
	UserRSS     uint64
	ShadowRSS   uint64
	CapTable    core.TableStats
	CapEntries  int
	AliasEntry  int
	AliasWalks  uint64
	Invalidates uint64

	// Security.
	Violations []*core.Violation

	// Checker (when enabled).
	Checker    tracker.CheckerStats
	Mismatches []tracker.Mismatch

	cfg Config
}

// TotalUops returns native plus injected micro-ops.
func (r *Result) TotalUops() uint64 { return r.NativeUops + r.InjectedUops }

// UopTrace is one scheduled micro-op's pipeline timestamps.
type UopTrace struct {
	Core     int
	RIP      uint64
	Uop      string
	Fetch    uint64
	Dispatch uint64
	Issue    uint64
	Done     uint64
	Commit   uint64
}

// UopExpansion returns dynamic micro-ops per macro-op (Figure 6 bottom).
func (r *Result) UopExpansion() float64 {
	if r.MacroInsts == 0 {
		return 0
	}
	return float64(r.TotalUops()) / float64(r.MacroInsts)
}

// IPC returns committed macro-ops per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.MacroInsts) / float64(r.Cycles)
}

// Seconds converts cycles to simulated wall-clock time.
func (r *Result) Seconds() float64 {
	return float64(r.Cycles) / (r.cfg.FrequencyGHz * 1e9)
}

// BandwidthMBs returns DRAM traffic in MB/s of simulated time (Figure 9
// bottom).
func (r *Result) BandwidthMBs() float64 {
	s := r.Seconds()
	if s == 0 {
		return 0
	}
	return float64(r.DRAMBytes) / 1e6 / s
}

// SquashPct returns the percentage of execution time spent squashing
// (front-end blocked on mispredict recovery; Figure 8 bottom).
func (r *Result) SquashPct() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return 100 * float64(r.SquashCycles) / float64(r.Cycles)
}

// coreCtx is one core's pipeline and CHEx86 front-end state.
type coreCtx struct {
	id  int
	cfg *Config

	dec     decode.Decoder
	bu      *branch.Unit
	eng     *tracker.Engine
	checker *tracker.Checker

	capCache   *cache.KeyCache
	aliasCache *cache.KeyCache
	tlb        *mem.TLB
	hier       cache.Hierarchy

	// Front-end timing state.
	fetchAt      uint64
	macroLeft    int
	uopLeft      int
	blockedUntil uint64
	curLine      uint64

	// Back-end resources (the bandwidth windows are the last fields).
	rob        *occupancyRing
	iq         *issueWindow
	lq         *occupancyRing
	sq         *occupancyRing
	fetchRing  *occupancyRing
	regReady   [isa.NumRegs]uint64
	lastCommit uint64
	lastRIP    uint64 // last committed macro-op address (hang diagnostics)

	// Stats.
	squashCycles  uint64
	redirects     uint64
	aliasFlushes  uint64
	allocatorUops uint64
	capMissLat    uint64 // total shadow-access latency charged to capChecks
	walkLat       uint64 // total alias-walk latency charged
	checksRun     uint64
	elidedChecks  uint64 // checks suppressed at proven-safe sites
	gatedMem      uint64 // memory uops gated on a capability-check token

	// microRerouted marks the current macro-op as translated through the
	// writable microcode RAM: its micro-op numbering may differ from the
	// native expansion the elision proofs were keyed against, so elision
	// is suppressed for it (fail-closed).
	microRerouted bool

	// Live call-string fold (elision lookups only; maintained when
	// Cfg.ElideChecks is set). ctxStack[d-1] holds the k=2 CallCtx after
	// the d-th committed internal CALL; pops restore the caller's fold
	// exactly, which a bare k-limited string could not (the truncated
	// site is gone). Depth keeps counting past the array so deep phases
	// recover once they return below the cap; the stored prefix stays
	// valid. A RET with no matching CALL on the stack means the fold can
	// never be trusted again — ctxLost pins every later lookup to the
	// CtxAny fallback (fail-closed).
	ctxStack [64]CallCtx
	ctxDepth int
	ctxLost  bool

	// Capability event state.
	pendingGen     *core.Capability
	pendingFreePID core.PID

	// firstViolation accumulates the first capability violation detected
	// while processing the current macro-op (see coreCtx.record); reset
	// at the top of processRec.
	firstViolation *core.Violation

	done    bool
	uopBuf  []isa.Uop
	asanBuf []isa.Uop // scratch for ASanInstrument's expansion
	planBuf []uopPlan
	walkBuf []uint64 // scratch for AliasTable.WalkInto touch lists
	recsRun uint64

	// The nine per-cycle bandwidth windows are values; each allocates its
	// counter pages on first use (resources.go).
	issueBW  bandwidth
	commitBW bandwidth
	fuBW     [isa.NumFUClasses]bandwidth
}

// Sim runs one guest program on the simulated machine under one protection
// variant.
type Sim struct {
	Cfg   Config
	M     *emu.Machine
	Table *core.Table
	PT    *mem.PageTable
	Ali   *tracker.AliasTable
	MSRs  *core.MSRConfig
	DB    *tracker.RuleDB

	// Microcode is the writable microcode RAM holding field updates;
	// matching macro-ops have their translation re-routed through it
	// (Section I's unobtrusive-field-update mechanism).
	Microcode *decode.Microcode

	// TraceUop, when set, observes every scheduled micro-op with its
	// pipeline timestamps (a debugging probe; adds no simulation cost when
	// nil).
	TraceUop func(t UopTrace)

	// TraceDeref, when set, observes every memory micro-op's dereference
	// tag as computed by the speculative pointer tracker (the PID of the
	// addressing-mode base, with index fallback). It fires for the
	// tracker-based variants only, before any check-injection decision, so
	// the stream reflects the tracker's raw view — the probe the static
	// pointer-flow cross-check (internal/ptrflow) diffs against.
	TraceDeref func(rip uint64, u *isa.Uop, pid core.PID)

	// TraceCommit, when set, observes every committed macro-op record
	// after the pipeline has fully processed it (checks injected,
	// capability events applied, violations recorded) and immediately
	// before the record is recycled. The record must not be retained —
	// copy what you need. This is the probe the lockstep differential
	// harness (internal/lockstep) uses to compare the pipeline's committed
	// architectural stream against a reference emulator running in step.
	TraceCommit func(rec *emu.Rec)

	// elision marks sites with an independently verified safety proof;
	// consulted only when Cfg.ElideChecks is set (see elide.go).
	elision ElisionMap

	dram *mem.DRAM

	// uc is the decoded-μop translation cache every core shares
	// (uopcache.go), nil until the first lookup.
	uc *uopCache

	cores []*coreCtx
	recQ  []recRing

	Violations  []*core.Violation
	invalidates uint64
	warm        *Result // snapshot at the warmup boundary
}

// New constructs a simulation of prog under cfg with the given number of
// harts (one core per hart). It is a thin wrapper around NewSim that
// panics on construction errors; new code should prefer NewSim.
func New(prog *asm.Program, cfg Config, harts int) *Sim {
	s, err := NewSim(prog, cfg, harts)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSim constructs a simulation of prog under cfg with the given number
// of harts (one core per hart), returning a structured *SimError for
// invalid configurations instead of panicking.
func NewSim(prog *asm.Program, cfg Config, harts int) (*Sim, error) {
	if prog == nil {
		return nil, &SimError{Kind: ErrConfig, Msg: "nil program"}
	}
	if err := cfg.validate(harts); err != nil {
		return nil, err
	}
	opts := emu.Options{Harts: harts, MaxInsts: cfg.MaxInsts}
	if cfg.Variant == decode.VariantASan {
		opts.RedzonePad = 32
		opts.Quarantine = true
	}
	m := emu.New(prog, opts)

	s := &Sim{
		Cfg:       cfg,
		M:         m,
		PT:        mem.NewPageTable(),
		MSRs:      core.NewMSRConfig(0),
		DB:        tracker.NewRuleDB(),
		Microcode: &decode.Microcode{},
		dram:      mem.NewDRAM(cfg.DRAMLatency),
	}
	s.dram.CyclesPerLine = cfg.DRAMCycLine
	s.dram.SetLanes(harts)
	s.Table = core.NewTable(m.Mem)
	s.Table.MaxAllocSize = cfg.MaxAllocSize
	s.Ali = tracker.NewAliasTable(m.Mem, s.PT)

	// OS kernel configuration: register the heap-management routines'
	// entry/exit points and signatures in the MSRs (Section IV-C).
	regs := []core.RegisteredFn{
		{Kind: core.FnMalloc, Entry: heap.MallocEntry, Exit: heap.MallocExit, ArgReg: isa.RDI, RetReg: isa.RAX},
		{Kind: core.FnCalloc, Entry: heap.CallocEntry, Exit: heap.CallocExit, ArgReg: isa.RDI, RetReg: isa.RAX},
		{Kind: core.FnRealloc, Entry: heap.ReallocEntry, Exit: heap.ReallocExit, ArgReg: isa.RDI, RetReg: isa.RAX},
		{Kind: core.FnFree, Entry: heap.FreeEntry, Exit: heap.FreeExit, ArgReg: isa.RDI},
	}
	for _, r := range regs {
		if err := s.MSRs.Register(r); err != nil {
			return nil, &SimError{Kind: ErrConfig,
				Msg: fmt.Sprintf("registering heap routine %d: %v", r.Kind, err), Err: err}
		}
	}

	// Program load: initialize the shadow capability table from the symbol
	// table and seed the shadow alias table from relocation entries.
	if cfg.Variant.UsesTracker() {
		for _, g := range prog.Globals {
			pid := m.GlobalPIDs[g.Name]
			s.Table.AddGlobal(pid, g.Addr, g.Size, g.ReadOnly)
		}
		for _, r := range prog.Relocs {
			for _, g := range prog.Globals {
				if g.Name == r.Target {
					s.Ali.Set(r.Slot, m.GlobalPIDs[g.Name])
					break
				}
			}
		}
	}

	s.recQ = make([]recRing, harts)
	llc := cache.NewLineCache("LLC", cfg.LLCSizeKB*1024, cfg.LLCWays, cfg.LineSize, cfg.LLCLatency)
	for i := 0; i < harts; i++ {
		s.cores = append(s.cores, s.newCore(i, llc))
	}
	return s, nil
}

// newCore builds core id, whose hierarchy ends in the LLC and DRAM that
// every core shares.
func (s *Sim) newCore(id int, llc *cache.LineCache) *coreCtx {
	cfg := &s.Cfg
	c := &coreCtx{
		id:         id,
		cfg:        cfg,
		bu:         branch.NewUnit(),
		capCache:   core.NewCapCache(cfg.CapCacheEntries),
		aliasCache: tracker.NewAliasCache(cfg.AliasCacheEntries, cfg.AliasVictim),
		tlb:        mem.NewTLB(cfg.TLBEntries, cfg.TLBWays, s.PT),
		rob:        newOccupancyRing(cfg.ROBSize),
		fetchRing:  newOccupancyRing(cfg.ROBSize + 64),
		iq:         newIssueWindow(cfg.IQSize),
		lq:         newOccupancyRing(cfg.LQSize),
		sq:         newOccupancyRing(cfg.SQSize),
		macroLeft:  cfg.FetchWidth,
		uopLeft:    cfg.IssueWidth,
	}
	c.eng = tracker.NewEngine(s.DB, s.Ali, tracker.NewAliasPredictor(cfg.PredictorEntries))
	if cfg.EnableChecker {
		c.checker = tracker.NewChecker(s.M.Truth, c.eng.Tags)
	}
	// validate has bounded every width to 1–255.
	c.issueBW.width = uint8(cfg.IssueWidth)
	c.commitBW.width = uint8(cfg.CommitWidth)
	for f, n := range cfg.fuCounts() {
		c.fuBW[f].width = uint8(n)
	}
	c.hier = cache.Hierarchy{
		Lane: id,
		L1I:  cache.NewLineCache("L1I", cfg.L1ISizeKB*1024, cfg.L1IWays, cfg.LineSize, cfg.L1Latency),
		L1D:  cache.NewLineCache("L1D", cfg.L1DSizeKB*1024, cfg.L1DWays, cfg.LineSize, cfg.L1Latency),
		L2:   cache.NewLineCache("L2", cfg.L2SizeKB*1024, cfg.L2Ways, cfg.LineSize, cfg.L2Latency),
		LLC:  llc,
		Ram:  s.dram,
	}
	c.hier.NoPrefetch = cfg.NoPrefetch
	if cfg.ShadowCacheKB > 0 {
		c.hier.Shadow = cache.NewLineCache("shadow", cfg.ShadowCacheKB*1024, shadowWays, cfg.LineSize, 4)
	}
	return c
}

// SetReloadHook installs a pointer-reload observer on every core's tracker
// engine (the Table II pattern-collection probe).
func (s *Sim) SetReloadHook(fn func(pc uint64, pid core.PID)) {
	for _, c := range s.cores {
		c.eng.ReloadHook = fn
	}
}

// nextRec returns the next committed record for the given core, buffering
// records belonging to other cores, or nil when the core's hart is done.
// The per-core buffers are rings: the old reslicing queue (q = q[1:])
// kept the backing array's consumed head reachable, so a long run with
// multi-hart buffering grew memory with the number of records ever
// queued rather than the number simultaneously in flight.
func (s *Sim) nextRec(id int) (*emu.Rec, error) {
	for {
		if rec := s.recQ[id].pop(); rec != nil {
			return rec, nil
		}
		rec, err := s.M.Step()
		if err != nil {
			return nil, err
		}
		if rec == nil {
			return nil, nil
		}
		if rec.Core == id {
			return rec, nil
		}
		s.recQ[rec.Core].push(rec)
	}
}

// Run simulates to completion (or the instruction budget, or the first
// violation in StopOnViolation mode) and returns the aggregated result.
func (s *Sim) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: the context is checked once per
// scheduling round, so a cancellation or deadline expiry stops the
// simulation within one round and surfaces as an ErrCanceled/ErrDeadline
// *SimError carrying a pipeline snapshot. The partial result accumulated
// so far is returned alongside the error.
func (s *Sim) RunContext(ctx context.Context) (*Result, error) {
	for {
		if err := ctx.Err(); err != nil {
			kind := ErrCanceled
			if err == context.DeadlineExceeded {
				kind = ErrDeadline
			}
			return s.result(), &SimError{Kind: kind,
				Msg: "simulation stopped: " + err.Error(), Snapshot: s.snapshot(), Err: err}
		}
		done, err := s.Step(1)
		if err != nil {
			return s.result(), err
		}
		if done {
			return s.result(), nil
		}
	}
}

// checkWatchdog enforces the cycle budget and the per-hart forward-
// progress window, converting livelocks into structured hang errors.
func (s *Sim) checkWatchdog() error {
	cfg := &s.Cfg
	if cfg.MaxCycles > 0 {
		if cur := s.CurrentCycle(); cur > cfg.MaxCycles {
			return &SimError{Kind: ErrCycleLimit,
				Msg:      fmt.Sprintf("simulation exceeded the %d-cycle budget without draining (livelocked guest?)", cfg.MaxCycles),
				Snapshot: s.snapshot()}
		}
	}
	if cfg.StallCycles > 0 {
		for _, c := range s.cores {
			if !c.done && c.fetchAt > c.lastCommit+cfg.StallCycles {
				return &SimError{Kind: ErrHang,
					Msg: fmt.Sprintf("hart %d made no commit for %d cycles (front-end at %d, last commit %d)",
						c.id, c.fetchAt-c.lastCommit, c.fetchAt, c.lastCommit),
					Snapshot: s.snapshot()}
			}
		}
	}
	return nil
}

// Step advances the simulation by up to rounds macro-ops per core,
// returning done=true when every core has drained. With StopOnViolation
// set, the first violation is returned as the error. Step enables
// time-shared execution of multiple processes (see TimeShare).
func (s *Sim) Step(rounds int) (bool, error) {
	for r := 0; r < rounds; r++ {
		progress := false
		for _, c := range s.cores {
			if c.done {
				continue
			}
			rec, err := s.nextRec(c.id)
			if err != nil {
				return false, err
			}
			if rec == nil {
				c.done = true
				continue
			}
			progress = true
			if s.warm == nil && s.Cfg.WarmupInsts > 0 && s.M.TotalInsts() >= s.Cfg.WarmupInsts {
				s.warm = s.result()
			}
			v := s.processRec(c, rec)
			if s.TraceCommit != nil {
				s.TraceCommit(rec)
			}
			// processRec fully consumes the record (violations and checker
			// findings copy what they need), so it can go back on the
			// machine's free list for the next Step to reuse.
			s.M.Recycle(rec)
			if v != nil {
				s.Violations = append(s.Violations, v)
				if s.Cfg.StopOnViolation {
					return false, v
				}
			}
		}
		if !progress {
			return true, nil
		}
		if err := s.checkWatchdog(); err != nil {
			return false, err
		}
	}
	return false, nil
}

// Done reports whether every core has drained.
func (s *Sim) Done() bool {
	for _, c := range s.cores {
		if !c.done {
			return false
		}
	}
	return true
}

// CurrentCycle returns the latest commit cycle across cores.
func (s *Sim) CurrentCycle() uint64 {
	var max uint64
	for _, c := range s.cores {
		if c.lastCommit > max {
			max = c.lastCommit
		}
	}
	return max
}

// Result aggregates and returns the statistics so far (callers normally
// use Run's return value; TimeShare needs interim access).
func (s *Sim) Result() *Result { return s.result() }

// AdvanceTo raises every core's timeline floor to cycle (the wall-clock
// position at which the process is rescheduled onto the hardware).
func (s *Sim) AdvanceTo(cycle uint64) {
	for _, c := range s.cores {
		if c.fetchAt < cycle {
			c.fetchAt = cycle
			c.resetSlots()
		}
		if c.lastCommit < cycle {
			c.lastCommit = cycle
		}
	}
}

// OnContextSwitchIn models being scheduled onto the core after another
// process ran: the per-process security structures are cold — the OS
// restored the MSRs (Section IV-C), but the capability cache, alias cache,
// and TLB hold no entries for this address space.
func (s *Sim) OnContextSwitchIn(kernelCost uint64) {
	for _, c := range s.cores {
		c.fetchAt += kernelCost
		c.resetSlots()
		// Cold per-process structures (statistics survive the flush).
		c.capCache.Flush()
		c.aliasCache.Flush()
		c.tlb.Flush()
	}
}

func (s *Sim) result() *Result {
	r := &Result{Variant: s.Cfg.Variant, cfg: s.Cfg, Violations: s.Violations}
	for _, c := range s.cores {
		if c.lastCommit > r.Cycles {
			r.Cycles = c.lastCommit
		}
		r.MacroInsts += c.dec.Stats.MacroOps
		r.NativeUops += c.dec.Stats.NativeUops
		r.InjectedUops += c.dec.Stats.InjectedUops
		r.MSROMMacros += c.dec.Stats.MSROMMacros
		r.SquashCycles += c.squashCycles
		r.Redirects += c.redirects
		r.AliasFlushes += c.aliasFlushes
		r.AllocatorUops += c.allocatorUops
		r.CapMissLat += c.capMissLat
		r.WalkLat += c.walkLat
		r.ChecksRun += c.checksRun
		r.ChecksElided += c.elidedChecks
		r.GatedMem += c.gatedMem

		addStats(&r.CapCache, &c.capCache.Stats)
		addStats(&r.AliasCache, &c.aliasCache.Stats)
		addPred(&r.Predictor, &c.eng.Pred.Stats)
		addEng(&r.Engine, &c.eng.Stats)
		addBranch(&r.Branch, &c.bu.Dir.Stats)
		addStats(&r.L1D, &c.hier.L1D.Stats)
		addStats(&r.L1I, &c.hier.L1I.Stats)
		addStats(&r.L2, &c.hier.L2.Stats)
		if c.hier.Shadow != nil {
			addStats(&r.ShadowC, &c.hier.Shadow.Stats)
		}
		addTLB(&r.TLB, &c.tlb.Stats)
		if c.checker != nil {
			addChecker(&r.Checker, &c.checker.Stats)
			r.Mismatches = append(r.Mismatches, c.checker.Log...)
		}
	}
	// With multiple cores the squash percentage is relative to aggregate
	// core-cycles.
	if n := uint64(len(s.cores)); n > 1 {
		r.SquashCycles /= n
	}
	r.LLC = s.cores[0].hier.LLC.Stats
	r.DRAMBytes = s.dram.TotalBytes()
	r.UserRSS = s.M.Mem.UserRSS()
	r.ShadowRSS = s.M.Mem.ShadowRSS()
	r.CapTable = s.Table.Stats
	r.CapEntries = s.Table.Len()
	r.AliasEntry = s.Ali.Entries()
	r.AliasWalks = s.Ali.Walks
	r.Invalidates = s.invalidates
	if s.warm != nil {
		subtractWarm(r, s.warm)
	}
	return r
}

// subtractWarm removes the warmup prefix's counters from the totals.
// End-of-run state metrics (RSS, table sizes, violations) stay absolute.
//
// Checker counters intentionally stay absolute too: the hardware checker
// co-processor validates the whole run offline against ground truth, and
// its mismatch log is a correctness artifact — windowing it to the
// post-warmup suffix would hide mismatches that occurred during warmup.
func subtractWarm(r, w *Result) {
	r.Cycles -= minU64(w.Cycles, r.Cycles)
	r.MacroInsts -= w.MacroInsts
	r.NativeUops -= w.NativeUops
	r.InjectedUops -= w.InjectedUops
	r.SquashCycles -= minU64(w.SquashCycles, r.SquashCycles)
	r.Redirects -= w.Redirects
	r.AliasFlushes -= w.AliasFlushes
	r.MSROMMacros -= w.MSROMMacros
	r.AllocatorUops -= w.AllocatorUops
	r.CapMissLat -= w.CapMissLat
	r.WalkLat -= w.WalkLat
	r.ChecksRun -= w.ChecksRun
	r.ChecksElided -= w.ChecksElided
	r.GatedMem -= w.GatedMem
	r.DRAMBytes -= w.DRAMBytes
	r.AliasWalks -= w.AliasWalks
	subStats(&r.CapCache, &w.CapCache)
	subStats(&r.AliasCache, &w.AliasCache)
	subStats(&r.L1D, &w.L1D)
	subStats(&r.L1I, &w.L1I)
	subStats(&r.L2, &w.L2)
	subStats(&r.LLC, &w.LLC)
	subStats(&r.ShadowC, &w.ShadowC)
	subTLB(&r.TLB, &w.TLB)
	subPred(&r.Predictor, &w.Predictor)
	subBranch(&r.Branch, &w.Branch)
	subEng(&r.Engine, &w.Engine)
}

func subStats(dst, w *cache.Stats) {
	dst.Hits -= w.Hits
	dst.Misses -= w.Misses
	dst.Evictions -= w.Evictions
	dst.Writebacks -= w.Writebacks
	dst.Invals -= w.Invals
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func addStats(dst *cache.Stats, src *cache.Stats) {
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.Evictions += src.Evictions
	dst.Writebacks += src.Writebacks
	dst.Invals += src.Invals
}

func addPred(dst *tracker.PredictorStats, src *tracker.PredictorStats) {
	dst.Lookups += src.Lookups
	dst.Predictions += src.Predictions
	dst.Correct += src.Correct
	dst.PNA0 += src.PNA0
	dst.P0AN += src.P0AN
	dst.PMAN += src.PMAN
	dst.Blacklisted += src.Blacklisted
}

func subPred(dst *tracker.PredictorStats, w *tracker.PredictorStats) {
	dst.Lookups -= w.Lookups
	dst.Predictions -= w.Predictions
	dst.Correct -= w.Correct
	dst.PNA0 -= w.PNA0
	dst.P0AN -= w.P0AN
	dst.PMAN -= w.PMAN
	dst.Blacklisted -= w.Blacklisted
}

func addEng(dst *tracker.EngineStats, src *tracker.EngineStats) {
	dst.UopsSeen += src.UopsSeen
	dst.RulesApplied += src.RulesApplied
	dst.SpilledAliases += src.SpilledAliases
	dst.AliasClears += src.AliasClears
	dst.PointerReloads += src.PointerReloads
}

func subEng(dst *tracker.EngineStats, w *tracker.EngineStats) {
	dst.UopsSeen -= w.UopsSeen
	dst.RulesApplied -= w.RulesApplied
	dst.SpilledAliases -= w.SpilledAliases
	dst.AliasClears -= w.AliasClears
	dst.PointerReloads -= w.PointerReloads
}

// addBranch/subBranch and addTLB/subTLB keep result() and subtractWarm
// structurally symmetric: both sides go through the same helper pair, so
// adding a counter to branch.Stats or mem.TLBStats forces the change in
// exactly one aggregation and one subtraction site instead of drifting.
func addBranch(dst *branch.Stats, src *branch.Stats) {
	dst.Lookups += src.Lookups
	dst.DirMispred += src.DirMispred
	dst.TargMispred += src.TargMispred
}

func subBranch(dst *branch.Stats, w *branch.Stats) {
	dst.Lookups -= w.Lookups
	dst.DirMispred -= w.DirMispred
	dst.TargMispred -= w.TargMispred
}

func addTLB(dst *mem.TLBStats, src *mem.TLBStats) {
	dst.Hits += src.Hits
	dst.Misses += src.Misses
}

func subTLB(dst *mem.TLBStats, w *mem.TLBStats) {
	dst.Hits -= w.Hits
	dst.Misses -= w.Misses
}

func addChecker(dst *tracker.CheckerStats, src *tracker.CheckerStats) {
	dst.Validations += src.Validations
	dst.Matches += src.Matches
	dst.Mismatches += src.Mismatches
	dst.WrongPIDs += src.WrongPIDs
}
