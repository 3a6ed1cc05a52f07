package pipeline

import (
	"chex86/internal/branch"
	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/emu"
	"chex86/internal/heap"
	"chex86/internal/isa"
	"chex86/internal/tracker"
)

// uopPlan is a scheduled micro-op with its instrumentation-derived extra
// execute latency (capability-cache misses, shadow-table accesses).
type uopPlan struct {
	u        isa.Uop
	extraLat uint64
	// flush requests a pipeline flush when this uop completes (P0AN alias
	// misprediction recovery), with the added latency of the alias-table
	// walk that detected it.
	flush    bool
	flushLat uint64
}

// processRec runs one committed macro-op through the front-end machinery
// (decode, tracking, microcode customization) and the timing model. It
// returns the first capability violation detected, if any.
func (s *Sim) processRec(c *coreCtx, rec *emu.Rec) *core.Violation {
	in := rec.Inst
	cfg := &s.Cfg
	c.recsRun++
	c.lastRIP = in.Addr

	// --- Branch prediction (fetch stage). ---
	var brKind branch.Kind
	var predTaken bool
	var predTarget uint64
	isBranch := in.Op.IsBranch()
	if isBranch {
		switch in.Op {
		case isa.JCC:
			brKind = branch.KindCond
		case isa.JMP:
			brKind = branch.KindDirect
			if in.Dst.Kind == isa.OpReg {
				brKind = branch.KindIndirect
			}
		case isa.CALL:
			brKind = branch.KindCall
			if in.Dst.Kind == isa.OpReg {
				brKind = branch.KindIndirectCall
			}
		case isa.RET:
			brKind = branch.KindRet
		}
		predTaken, predTarget = c.bu.Predict(brKind, in.Addr, in.NextAddr())
	}

	// --- Decode to native micro-ops. ---
	// The μop translation cache memoizes the static translation
	// (Decoder.Native + Microcode.Apply) and its entries are immutable,
	// so a hit is served zero-copy: per-dynamic state (the effective
	// address, the instrumentation that follows) is read from the
	// committed record at its use sites, never written into the
	// expansion. The statistics the memoized stages would have bumped
	// are replayed on a hit so results are byte-identical with the cache
	// on and off.
	c.microRerouted = false
	gen := s.Microcode.Gen()
	var native []isa.Uop
	cached := false
	if !cfg.NoUopCache {
		if s.uc == nil {
			s.uc = newUopCache(len(s.M.Prog.Insts))
		}
		if e := s.uc.lookup(in.Addr, gen); e != nil {
			c.dec.Stats.MacroOps++
			c.dec.Stats.NativeUops += e.nativeUops
			if e.rerouted {
				c.dec.Stats.MSROMMacros++
				s.Microcode.Stats.Rerouted++
				c.microRerouted = true
			}
			native = e.uops
			cached = true
		}
	}
	if !cached {
		buf := c.dec.Native(in, c.uopBuf[:0])
		c.uopBuf = buf[:0]
		nativeUops := uint64(len(buf))
		native = buf
		// Field updates re-route matching translations through the MSRAM.
		if rerouted, hit := s.Microcode.Apply(in, native); hit {
			native = rerouted
			c.dec.Stats.MSROMMacros++
			c.microRerouted = true
		}
		if !cfg.NoUopCache {
			s.uc.insert(in.Addr, gen, native, nativeUops, c.microRerouted)
		}
	}

	// --- Tracking and instrumentation. ---
	c.firstViolation = nil

	plans := c.planBuf[:0]

	switch {
	case cfg.Variant == decode.VariantWatchdog:
		plans = s.instrumentWatchdog(c, rec, native, plans)

	case cfg.Variant == decode.VariantASan:
		// ASanInstrument derives shadow addresses from the access EAs, so
		// the ASan path materializes the effective addresses on a scratch
		// copy of the (immutable) expansion first.
		buf := append(c.uopBuf[:0], native...)
		c.uopBuf = buf[:0]
		for i := range buf {
			if buf[i].Type.IsMem() {
				buf[i].EA = rec.EA
			}
		}
		instrumented := c.dec.ASanInstrument(buf, c.asanBuf[:0])
		c.asanBuf = instrumented[:0]
		for i := range instrumented {
			plans = append(plans, uopPlan{u: instrumented[i]})
		}
		if rec.HasEA {
			c.record(in.Addr, s.checkASan(rec))
		}

	case cfg.Variant.UsesTracker():
		plans = s.instrumentTracked(c, rec, native, plans)

	default: // insecure baseline
		for i := range native {
			p := uopPlan{u: native[i]}
			if p.u.Type.IsMem() {
				p.u.EA = rec.EA
			}
			plans = append(plans, p)
		}
	}

	// --- Allocator entry/exit interception (Section IV-C). ---
	if rec.Event != emu.EvNone && cfg.Variant.UsesTracker() {
		plans = s.capEventUops(c, rec, plans)
	} else if rec.Event == emu.EvAllocExit || rec.Event == emu.EvFreeExit {
		extra := 0
		if cfg.Variant == decode.VariantASan {
			// ASan's allocator poisons/unpoisons the shadow of the whole
			// object and manages redzones and the quarantine.
			extra = int(rec.AllocSize / 32)
			if extra > 256 {
				extra = 256
			}
			extra += heap.CostUops
		}
		plans = c.allocatorBody(plans, extra)
	}
	c.planBuf = plans

	// --- Fetch timing. ---
	macroCost := 1
	switch cfg.Variant {
	case decode.VariantBinaryTranslation, decode.VariantASan:
		// Instrumentation is injected as macro-ops into the fetched stream
		// (translated code / compiled-in checks), consuming fetch slots.
		for i := range plans {
			if plans[i].u.Injected {
				macroCost++
			}
		}
	}
	msrom := len(plans) > 4 && cfg.Variant != decode.VariantBinaryTranslation && cfg.Variant != decode.VariantASan
	if msrom {
		c.dec.Stats.MSROMMacros++
	}
	c.beginMacro(cfg, in.Addr, macroCost, msrom)

	// --- Back-end scheduling. ---
	brDone, flushDone, flushLat := c.schedule(cfg, plans, s.TraceUop, in.Addr)

	// --- Branch resolution and redirect. ---
	if isBranch {
		if c.bu.Resolve(brKind, in.Addr, in.NextAddr(), predTaken, predTarget, rec.Taken, rec.Target) {
			c.redirect(cfg, brDone)
		}
	}
	if flushDone > 0 {
		c.redirect(cfg, flushDone+flushLat)
		c.aliasFlushes++
	}

	// --- Hardware checker co-processor (offline rule validation). ---
	if c.checker != nil {
		c.checker.Validate(rec)
	}

	// Retire tracker state for this macro-op: committed tags become
	// architectural and the store buffer drains into the alias table.
	if cfg.Variant.UsesTracker() {
		c.eng.CommitThrough(rec.Seq)
	}

	// --- Live call-string fold (elision lookups only). ---
	// Updated after the macro-op is fully processed so a CALL's own
	// micro-ops (the return-address push) probe in the caller's context
	// and a RET's in the callee's — matching the static attribution.
	if cfg.ElideChecks {
		c.ctxRetire(s, rec)
	}
	return c.firstViolation
}

// liveCtx returns the k=2 call-string context of the next macro-op, or
// CtxAny when the fold cannot name it (pairing lost, or currently deeper
// than the stack records) — the fail-closed direction, since CtxAny
// elision entries are verified against context-joined invariants.
func (c *coreCtx) liveCtx() CallCtx {
	switch {
	case c.ctxLost || c.ctxDepth > len(c.ctxStack):
		return CtxAny
	case c.ctxDepth == 0:
		return CtxRoot
	default:
		return c.ctxStack[c.ctxDepth-1]
	}
}

// ctxRetire folds one committed macro-op into the live call-string.
// Only CALLs into the program text push (external and intercepted
// allocator calls are summarized by the static analysis, not descended
// into), and only genuine guest RETs pop — the emulator's synthetic
// allocator-exit RET records carry an allocator event and return to the
// same procedure the CALL left.
func (c *coreCtx) ctxRetire(s *Sim, rec *emu.Rec) {
	switch rec.Inst.Op {
	case isa.CALL:
		if rec.Event != emu.EvNone || s.M.Prog.At(rec.Target) == nil {
			return
		}
		if c.ctxDepth < len(c.ctxStack) {
			cur := CtxRoot
			if c.ctxDepth > 0 {
				cur = c.ctxStack[c.ctxDepth-1]
			}
			c.ctxStack[c.ctxDepth] = cur.Push(rec.Inst.Addr)
		}
		c.ctxDepth++
	case isa.RET:
		if rec.Event != emu.EvNone {
			return
		}
		if c.ctxDepth == 0 {
			c.ctxLost = true
			return
		}
		c.ctxDepth--
	}
}

// record notes the first capability violation detected for the current
// macro-op, stamping it with the committing instruction's address. It is
// a method on the core context rather than a per-instruction closure:
// closures handed to the (non-inlined) instrumentation helpers escape to
// the heap, which would put an allocation on every committed instruction.
func (c *coreCtx) record(rip uint64, v *core.Violation) {
	if v != nil && c.firstViolation == nil {
		v.RIP = rip
		c.firstViolation = v
	}
}

// instrumentTracked runs the speculative pointer tracker over the native
// micro-ops and applies the microcode customization unit's check-injection
// decisions for the CHEx86 variants.
func (s *Sim) instrumentTracked(c *coreCtx, rec *emu.Rec, native []isa.Uop, plans []uopPlan) []uopPlan {
	cfg := &s.Cfg
	seq := rec.Seq
	rip := rec.Inst.Addr
	ea := rec.EA
	covered := cfg.Context.Covers(rip)

	// Elision probe context: the live fold re-truncated to the depth the
	// installed map was built at (constant per macro-op — the fold only
	// advances at retirement, below).
	var elideCtx CallCtx
	if cfg.ElideChecks {
		elideCtx = c.liveCtx().Limit(cfg.ctxK())
	}

	for i := range native {
		u := &native[i]
		switch u.Type {
		case isa.ULoad, isa.UStore:
			write := u.Type == isa.UStore
			pid := c.eng.DerefPID(u)
			if s.TraceDeref != nil {
				s.TraceDeref(rip, u, pid)
			}

			inject := false
			switch cfg.Variant {
			case decode.VariantMicrocodePrediction:
				inject = covered && pid != 0
			case decode.VariantMicrocodeAlwaysOn, decode.VariantBinaryTranslation:
				inject = covered
			}

			// Functional capability validation (all CHEx86 variants check;
			// the hardware-only variant checks inside the load/store unit).
			checkLat := uint64(0)
			hwOnly := cfg.Variant == decode.VariantHardwareOnly && covered
			doCheck := inject || (hwOnly && pid != 0)

			// Proof-carrying check elision: a site with an independently
			// verified safety proof skips the check it would otherwise run
			// — injection, functional validation, and the dereference's
			// token dependency. Everything else (tag tracking above, alias
			// prediction and spill handling below) proceeds unchanged, so
			// elision alters timing and check counts, never the tracker
			// state later sites depend on. Macro-ops rerouted through the
			// microcode RAM are never elided: their micro-op numbering may
			// not match the native expansion the proof was keyed against.
			// Two probes: the exact live context first, then the ⊤ entry
			// holding in every context (context-insensitive proofs, and
			// the only entries reachable once the fold is lost).
			if doCheck && pid != 0 && cfg.ElideChecks && !c.microRerouted {
				hitKey := ElideKey{Addr: rip, MacroIdx: u.MacroIdx, Ctx: elideCtx}
				hit := s.elision[hitKey]
				if !hit && !elideCtx.IsAny() {
					hitKey.Ctx = CtxAny
					hit = s.elision[hitKey]
				}
				if hit {
					inject = false
					hwOnly = false
					doCheck = false
					c.elidedChecks++
				}
			}
			if doCheck && pid != 0 {
				c.checksRun++
				if pid > 0 && !c.capCache.Access(uint64(pid)) {
					lat := c.hier.AccessShadowAt(core.ShadowAddr(pid), false, false, c.lastCommit)
					if cfg.IdealShadowLatency {
						lat = 0
					}
					checkLat += lat
					c.capMissLat += lat
				}
				c.record(rip, s.Table.Check(pid, ea, u.AccessSize(), write, rip))
			}

			gated := false
			if inject {
				if cfg.Variant == decode.VariantBinaryTranslation {
					// The translator materializes the effective address for
					// the check instruction with a separate glue macro-op.
					plans = append(plans, uopPlan{u: isa.Uop{
						Type: isa.ULea, Dst: isa.T3, Src1: isa.RNone, Src2: isa.RNone,
						Mem: u.Mem, Injected: true,
					}})
					c.dec.Stats.InjectedUops++
				}
				// The check produces a capability token (T3) the dereference
				// consumes: the access cannot issue before its check
				// completes. This ordering is what blocks Spectre-v1-style
				// bounds-check bypass (Section III).
				chk := isa.Uop{
					Type: isa.UCapCheck, Dst: isa.T3, Src1: u.Mem.Base, Src2: u.Mem.Index,
					Mem: u.Mem, EA: ea, PID: pid, Injected: true,
				}
				c.dec.Stats.InjectedUops++
				plans = append(plans, uopPlan{u: chk, extraLat: checkLat})
				checkLat = 0
				gated = pid != 0
			}

			// Append the dereference's plan first and patch it in place
			// through a pointer: uopPlan embeds the micro-op by value, and
			// building it in a local then appending costs a second
			// struct copy per memory micro-op. The pointer stays valid
			// until the next plans append (PNA0 below re-appends nothing
			// it still reads through plan).
			plans = append(plans, uopPlan{u: *u})
			plan := &plans[len(plans)-1]
			plan.u.EA = ea
			if gated {
				c.gatedMem++
				if u.Type == isa.ULoad {
					plan.u.Src1 = isa.T3
				} else {
					plan.u.Src2 = isa.T3
				}
			}
			if hwOnly {
				// The load/store unit performs the check before initiating
				// every memory access — tagged or not — so the lookup (and
				// any shadow-table miss) is on the access's critical path.
				// This always-on cost is why the prediction-driven microcode
				// variant supersedes the hardware-only scheme on
				// memory-intensive applications (Section VII-D).
				plan.extraLat = 2 + checkLat
			}

			if u.Type == isa.ULoad && u.AccessSize() < 8 {
				// Sub-word loads cannot reload a pointer; no alias work.
				continue
			}

			if u.Type == isa.ULoad {
				// Spilled-pointer alias detection (Section V-C).
				predicted := c.eng.PredictLoad(rip)
				res := c.eng.ResolveLoad(seq, rip, ea, u.Dst, predicted)

				var walkLat uint64
				if s.PT.AliasHosting(ea) {
					if !c.aliasCache.Access(ea&^7) && !cfg.NoAliasWalks {
						// Scratch-buffer walk: touches reuses the core's
						// walk buffer, so steady-state walks don't allocate.
						_, touches := s.Ali.WalkInto(ea, c.walkBuf[:0])
						c.walkBuf = touches[:0]
						if !cfg.IdealShadowLatency {
							for _, t := range touches {
								walkLat += c.hier.AccessShadowAt(t, false, true, c.lastCommit)
							}
						}
						c.walkLat += walkLat
					}
				}
				switch res.Outcome {
				case tracker.OutcomePNA0:
					// The check injected for the predicted reload is marked
					// a zero-idiom and squashed at the IQ (Figure 5c).
					plans = append(plans, uopPlan{u: isa.Uop{
						Type: isa.UCapCheck, Dst: isa.RNone, Src1: u.Dst,
						PID: res.Predicted, Injected: true, ZeroIdiom: true,
					}})
					c.dec.Stats.InjectedUops++
					continue
				case tracker.OutcomeP0AN:
					// Flush and restart at the offending instruction with
					// the right checks injected (Figure 5d).
					plan.flush = true
					plan.flushLat = walkLat
				}
				continue
			}

			// Store: record spilled pointer aliases through the store buffer;
			// they reach the shadow alias table at commit. The update writes
			// the alias-table leaf entry, leaving its line resident. A
			// sub-word store partially overwrites any alias in its word, so
			// it conservatively clears the entry (the word no longer holds
			// the tracked pointer value).
			src := u.Src1
			if u.AccessSize() < 8 {
				src = isa.RNone // force the clear path
			}
			if _, updated := c.eng.StoreAlias(seq, ea, src); updated {
				c.aliasCache.Access(ea &^ 7)
				if leaf := s.Ali.LeafAddr(ea); leaf != 0 && !cfg.NoAliasWalks {
					c.hier.AccessShadowAt(leaf, true, true, c.lastCommit)
				}
				s.invalidateAlias(c, ea&^7)
			}

		default:
			c.eng.ApplyRegRule(seq, u)
			plans = append(plans, uopPlan{u: *u})
		}
	}
	return plans
}

// instrumentWatchdog applies Watchdog-style conservative instrumentation
// (Section VII-C): every 64-bit load/store is checked, and every access
// also loads its pointer-identifier metadata from the 1:1 shadow region —
// alias detection deferred to execute, with no prediction and no alias
// cache, roughly doubling memory references.
func (s *Sim) instrumentWatchdog(c *coreCtx, rec *emu.Rec, native []isa.Uop, plans []uopPlan) []uopPlan {
	seq := rec.Seq
	rip := rec.Inst.Addr
	ea := rec.EA
	for i := range native {
		u := &native[i]
		switch u.Type {
		case isa.ULoad, isa.UStore:
			write := u.Type == isa.UStore
			pid := c.eng.DerefPID(u)
			if s.TraceDeref != nil {
				s.TraceDeref(rip, u, pid)
			}
			c.checksRun++
			if pid != 0 {
				if pid > 0 && !c.capCache.Access(uint64(pid)) {
					lat := c.hier.AccessShadowAt(core.ShadowAddr(pid), false, false, c.lastCommit)
					c.capMissLat += lat
				}
				c.record(rip, s.Table.Check(pid, ea, u.AccessSize(), write, rip))
			}
			// The metadata companion access: a real load into the D-cache
			// hierarchy at the word's 1:1 shadow address.
			meta := isa.Uop{
				Type: isa.ULoad, Dst: isa.T1, Src1: isa.RNone, Src2: isa.RNone,
				EA:       decode.WatchdogShadowBase + (ea &^ 7),
				Mem:      isa.MemRef{Base: u.Mem.Base, Index: u.Mem.Index, Scale: u.Mem.Scale},
				Injected: true,
			}
			c.dec.Stats.InjectedUops++
			plans = append(plans, uopPlan{u: meta})
			// The check gates the dereference, as in the other schemes.
			chk := isa.Uop{
				Type: isa.UCapCheck, Dst: isa.T3, Src1: isa.T1, Src2: isa.RNone,
				EA: ea, PID: pid, Injected: true,
			}
			c.dec.Stats.InjectedUops++
			plans = append(plans, uopPlan{u: chk})
			plan := uopPlan{u: *u}
			plan.u.EA = ea
			if u.Type == isa.ULoad {
				plan.u.Src1 = isa.T3
				// Alias resolution straight from the metadata (no
				// prediction, no alias cache): propagate the actual PID.
				actual, fwd := c.eng.SB.Forward(ea)
				if !fwd {
					actual = c.eng.Aliases.Lookup(ea)
				}
				if u.Dst.Valid() {
					c.eng.Tags.Propagate(seq, u.Dst, actual)
				}
			} else {
				plan.u.Src2 = isa.T3
				c.eng.StoreAlias(seq, ea, u.Src1)
			}
			plans = append(plans, plan)
		default:
			c.eng.ApplyRegRule(seq, u)
			plans = append(plans, uopPlan{u: *u})
		}
	}
	return plans
}

// capEventUops injects the capability generation/free micro-ops for an
// intercepted allocator event and performs their shadow-table semantics.
func (s *Sim) capEventUops(c *coreCtx, rec *emu.Rec, plans []uopPlan) []uopPlan {
	rip := rec.Inst.Addr
	seq := rec.Seq
	switch rec.Event {
	case emu.EvAllocEnter:
		// A realloc releases its old capability first.
		if fn := s.MSRs.AtEntry(rec.Target); fn != nil && fn.Kind == core.FnRealloc && rec.AllocBase != 0 {
			oldPID := c.eng.Tags.Current(isa.RDI)
			c.record(rip, s.Table.FreeBegin(oldPID, rec.AllocBase, rip))
			s.Table.FreeEnd(oldPID)
			s.invalidateCap(c, oldPID)
			plans = append(plans,
				uopPlan{u: isa.Uop{Type: isa.UCapFreeBegin, Dst: isa.RNone, PID: oldPID, Injected: true}},
				uopPlan{u: isa.Uop{Type: isa.UCapFreeEnd, Dst: isa.RNone, PID: oldPID, Injected: true}})
			c.dec.Stats.InjectedUops += 2
		}
		cap, v := s.Table.GenBegin(rec.AllocPID, rec.AllocSize, rip)
		c.record(rip, v)
		c.pendingGen = cap
		if rec.AllocPID > 0 {
			// The capGen micro-ops write the new table entry, leaving its
			// line resident (write-allocate) for the first capCheck. Like
			// other stores, the write drains through buffers off the
			// critical path: traffic is charged, retirement is not.
			c.hier.AccessShadowAt(core.ShadowAddr(rec.AllocPID), true, false, c.lastCommit)
		}
		plans = append(plans, uopPlan{u: isa.Uop{Type: isa.UCapGenBegin, Dst: isa.RNone, PID: rec.AllocPID, Injected: true}})
		c.dec.Stats.InjectedUops++

	case emu.EvAllocExit:
		plans = c.allocatorBody(plans, 0)
		if c.pendingGen != nil {
			s.Table.GenEnd(c.pendingGen, rec.AllocBase)
			c.pendingGen = nil
		}
		// Capability transfer: the return-value register receives the new
		// capability's PID.
		c.eng.SetReg(seq, isa.RAX, rec.AllocPID)
		plans = append(plans, uopPlan{u: isa.Uop{Type: isa.UCapGenEnd, Dst: isa.RNone, PID: rec.AllocPID, Injected: true}})
		c.dec.Stats.InjectedUops++

	case emu.EvFreeEnter:
		if rec.AllocBase == 0 {
			break // free(NULL) is a no-op
		}
		pid := c.eng.Tags.Current(isa.RDI)
		c.record(rip, s.Table.FreeBegin(pid, rec.AllocBase, rip))
		c.pendingFreePID = pid
		plans = append(plans, uopPlan{u: isa.Uop{Type: isa.UCapFreeBegin, Dst: isa.RNone, PID: pid, Injected: true}})
		c.dec.Stats.InjectedUops++

	case emu.EvFreeExit:
		plans = c.allocatorBody(plans, 0)
		if c.pendingFreePID != 0 {
			s.Table.FreeEnd(c.pendingFreePID)
			s.invalidateCap(c, c.pendingFreePID)
			plans = append(plans, uopPlan{u: isa.Uop{Type: isa.UCapFreeEnd, Dst: isa.RNone, PID: c.pendingFreePID, Injected: true}})
			c.dec.Stats.InjectedUops++
			c.pendingFreePID = 0
		}
	}
	return plans
}

// allocatorBody appends the dynamic cost of the natively modeled allocator
// routine (its instructions are real guest work); extra adds
// instrumentation-specific work such as ASan's shadow poisoning.
func (c *coreCtx) allocatorBody(plans []uopPlan, extra int) []uopPlan {
	n := heap.CostUops + extra
	for i := 0; i < n; i++ {
		plans = append(plans, uopPlan{u: isa.Uop{
			Type: isa.UAlu, Alu: isa.AluAdd, Dst: isa.T2, Src1: isa.T2, Imm: 1, HasImm: true,
		}})
	}
	c.allocatorUops += uint64(n)
	c.dec.Stats.NativeUops += uint64(n)
	return plans
}

// invalidateCap broadcasts capability-cache invalidations to all other
// cores when a capability is freed (Section IV-C).
func (s *Sim) invalidateCap(c *coreCtx, pid core.PID) {
	if pid <= 0 {
		return
	}
	for _, o := range s.cores {
		if o != c {
			o.capCache.Invalidate(uint64(pid))
			s.invalidates++
		}
	}
}

// invalidateAlias broadcasts alias-cache invalidations to all other cores
// when a spilled pointer alias is updated (Section V-C).
func (s *Sim) invalidateAlias(c *coreCtx, key uint64) {
	for _, o := range s.cores {
		if o != c {
			o.aliasCache.Invalidate(key)
			s.invalidates++
		}
	}
}

// checkASan models AddressSanitizer's functional detection: accesses to
// redzones or to freed (quarantined) memory are flagged.
func (s *Sim) checkASan(rec *emu.Rec) *core.Violation {
	const pad = 32
	ea := rec.EA
	if span := s.M.Truth.Find(ea); span != nil {
		if !span.Live {
			return &core.Violation{Kind: core.VUseAfterFree, PID: span.PID, EA: ea, RIP: rec.Inst.Addr,
				Msg: "ASan: access to quarantined memory"}
		}
		return nil
	}
	// Right redzone of the preceding allocation.
	if prev := s.M.Truth.Find(ea - pad); prev != nil && ea < prev.Base+prev.Size+pad {
		return &core.Violation{Kind: core.VOutOfBounds, PID: prev.PID, EA: ea, RIP: rec.Inst.Addr,
			Msg: "ASan: redzone access (overflow)"}
	}
	// Left redzone of the following allocation.
	if next := s.M.Truth.Find(ea + pad); next != nil && ea >= next.Base-pad && ea < next.Base {
		return &core.Violation{Kind: core.VOutOfBounds, PID: next.PID, EA: ea, RIP: rec.Inst.Addr,
			Msg: "ASan: redzone access (underflow)"}
	}
	return nil
}
