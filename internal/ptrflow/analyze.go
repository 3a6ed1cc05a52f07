package ptrflow

import (
	"fmt"
	"sort"

	"chex86/internal/asm"
	"chex86/internal/decode"
	"chex86/internal/heap"
	"chex86/internal/isa"
	"chex86/internal/pipeline"
	"chex86/internal/tracker"
)

// Options parameterizes an analysis run.
type Options struct {
	// Harts is the number of hardware threads the program is run with
	// (selects the thread<i> entry points). Defaults to 1.
	Harts int

	// MaxTransfers bounds block-transfer applications as a divergence
	// backstop; 0 means an automatic bound derived from program size.
	MaxTransfers int

	// ContextK selects the call-string depth of the context-sensitive
	// pass (context.go): 0 means the default k = 2, 1 and 2 are honored
	// as given (larger values clamp to 2), and -1 disables the pass
	// entirely — every function analyzed once with all callers merged,
	// reproducing the context-insensitive PR 2 analysis.
	ContextK int
}

// SiteKey identifies one memory micro-op: the macro-op address plus the
// micro-op's index within the native expansion. The dynamic tracker's
// deref trace uses the same key (see crosscheck.go).
type SiteKey struct {
	Addr     uint64
	MacroIdx uint8
}

// Site is the static classification of one memory micro-op.
type Site struct {
	Addr     uint64
	MacroIdx uint8
	Store    bool
	Inst     string // macro-op disassembly
	Verdict  Verdict
	// Assumed marks verdicts that rest on the init-order assumption
	// (a value read through a region summary before the analysis can
	// prove the region's writes precede it, see DESIGN.md §9); such
	// verdicts cannot prove tracker false negatives.
	Assumed bool
	// Deref is the joined abstract tag of the dereference (diagnostics).
	Deref Value
	// Reached reports whether the dataflow reached the site at all.
	Reached bool

	// EA is the joined effective-address attribution across every path
	// reaching the site: the owning region, the byte-offset interval
	// from its base, the access width, and whether a heap release may
	// precede the access. EA.OK is false when any path fails to
	// attribute the address to the same single region.
	EA eaFact

	// Ctxs is the per-calling-context refinement of the fields above,
	// keyed by k-limited call string (context.go); nil when the analysis
	// ran context-insensitively. Each entry joins only the paths that
	// reach the site under that context, so its verdict and EA
	// attribution are at least as sharp as the merged ones. Iterate via
	// SortedCtxs for deterministic output.
	Ctxs map[pipeline.CallCtx]*SiteCtx
}

// Key returns the site's key.
func (s *Site) Key() SiteKey { return SiteKey{Addr: s.Addr, MacroIdx: s.MacroIdx} }

// Stats aggregates analysis-wide counters for the report.
type Stats struct {
	Blocks              int
	Insts               int
	MemSites            int
	PointerSites        int
	NotPointerSites     int
	UnknownSites        int
	AssumedSites        int
	UnreachedSites      int
	UnknownEAStores     int // stores whose effective address could not be bounded
	UnresolvedIndirects int
	Transfers           int
}

// RegionSummary reports one abstract memory region's fixpoint for the
// JSON report.
type RegionSummary struct {
	Name    string `json:"name"`
	Init    string `json:"init"`    // static-initializer contribution
	Stores  string `json:"stores"`  // dynamic-store contribution
	Covered bool   `json:"covered"` // every word has an explicit initializer
}

// Analysis is the result of a static pointer-flow run.
type Analysis struct {
	CFG   *CFG
	Sites map[SiteKey]*Site
	Stats Stats

	// Harts records the hart count the analysis ran with (temporal heap
	// proofs are restricted under concurrency, see proof.go).
	Harts int

	// HeapMinChunk is a sound lower bound on the size of every heap
	// chunk the program allocates: the minimum over all reachable
	// allocator call sites of the provable lower bound of the size
	// argument (the allocator never returns a chunk smaller than the
	// request). Zero when any allocation size is unbounded below.
	HeapMinChunk uint64

	// AnyFree reports whether any reachable path calls free/realloc or
	// unknown external code (which may free).
	AnyFree bool

	// CtxK is the effective call-string depth the analysis ran with
	// (-1 context-insensitive, otherwise 1 or 2).
	CtxK int

	regions     map[string]*region
	relocSlot   map[uint64]string // reloc slot -> target global name
	globals     []asm.Global      // sorted by address
	poison      Value             // accumulated unknown-EA store contribution
	poisonGrows int               // poison growth count, for widening
	unresolved  map[uint64]bool   // indirect branches with no target hints

	blockIn []*state // per-block entry fixpoint (narrowed), nil if unreached

	// Context-sensitive pass results (context.go): per-(block, context)
	// entry states plus their deterministic discovery order.
	ctxIn    map[ctxKey]*state
	ctxOrder []ctxKey

	onRegionChange func() // fixpoint-restart notification
	collect        bool   // final pass: gather alloc-size/free facts
	frozen         bool   // context pass: region summaries are read-only
	allocUnknown   bool   // an allocation size could not be bounded below
	allocMin       int64  // min provable size-argument lower bound
}

// region is one abstract memory object's summary: what the alias table
// can hold for addresses inside it.
type region struct {
	init    Value // explicit static initializers (Data words, reloc slots)
	stores  Value // join of everything dynamically stored through it
	covered bool  // every 8-byte word has an explicit initializer
	grows   int   // summary growth count, for widening
}

// unmappedRegion names absolute addresses outside every known global.
const unmappedRegion = "@unmapped"

// state is the dataflow fact at a program point: per-register abstract
// tags, the tracked RSP displacement from hart entry, the per-frame
// stack-slot lattice (keyed by entry-relative offset, so slots survive
// across calls and the callee's spills resolve exactly), and whether any
// heap chunk may already have been released on a path reaching the point
// (free joins as logical OR — required for the temporal side of safety
// proofs, see proof.go).
//
// The frame is a list sorted by offset. frameOK false means slot
// addressing is lost (every frame load reads top); the list is then
// empty. The transfer loses slot addressing exactly when it loses the
// RSP displacement, so frameOK equals rspOK here; the flag is separate
// because the bundle's FrameOK claim is, and a copy must carry it.
type state struct {
	regs    [isa.NumRegs]Value
	rsp     int64
	rspOK   bool
	frameOK bool
	frame   []slot
	free    bool
}

// slot is one stack-frame slot's fact, keyed by its entry-relative RSP
// offset.
type slot struct {
	off int64
	v   Value
}

func newEntryState() *state {
	s := &state{rspOK: true, frameOK: true}
	for i := range s.regs {
		s.regs[i] = notPtr // all tags start at 0
	}
	return s
}

// cmpFact is the block-local record of the last CMP micro-op, consumed
// by conditional-branch edge refinement. It is invalidated by any later
// flag-writing ALU micro-op and by writes to either operand, so at the
// block-terminating JCC it describes exactly the comparison the branch
// evaluates.
type cmpFact struct {
	ok     bool
	r1     isa.Reg
	r2     isa.Reg // RNone for register-immediate compares
	imm    int64
	hasImm bool
}

// invalidateOnWrite drops the fact when a micro-op overwrites one of the
// compared registers.
func (c *cmpFact) invalidateOnWrite(dst isa.Reg) {
	if c.ok && dst.Valid() && (dst == c.r1 || dst == c.r2) {
		c.ok = false
	}
}

// copyFrom overwrites s with o, reusing s's frame storage. The block
// transfers run on scratch states filled this way, so a state is
// allocated only when it becomes a node's stored entry fact (clone).
func (s *state) copyFrom(o *state) {
	frame := append(s.frame[:0], o.frame...)
	*s = *o
	s.frame = frame
}

func (s *state) clone() *state {
	c := &state{}
	c.copyFrom(s)
	return c
}

// slotAt returns the fact of the frame slot at off.
func (s *state) slotAt(off int64) (Value, bool) {
	if i, ok := s.slotIndex(off); ok {
		return s.frame[i].v, true
	}
	return Value{}, false
}

// slotIndex binary-searches the frame for off, returning its index or
// the index it would be inserted at.
func (s *state) slotIndex(off int64) (int, bool) {
	lo, hi := 0, len(s.frame)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.frame[m].off < off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.frame) && s.frame[lo].off == off
}

// setSlot strongly updates the frame slot at off, inserting it in order.
func (s *state) setSlot(off int64, v Value) {
	i, ok := s.slotIndex(off)
	if !ok {
		s.frame = append(s.frame, slot{})
		copy(s.frame[i+1:], s.frame[i:])
	}
	s.frame[i] = slot{off: off, v: v}
}

// loseFrame drops slot addressing: every slot is suspect afterwards.
func (s *state) loseFrame() {
	s.frameOK = false
	s.frame = s.frame[:0]
}

// reg reads a register tag, mirroring Tags.Current: invalid registers
// (RNone) read as tag 0.
func (s *state) reg(r isa.Reg) Value {
	if !r.Valid() {
		return notPtr
	}
	return s.regs[r]
}

// joinInto joins o into s, returning whether s changed. Frames join by
// key intersection (a slot live on only one path is unknown afterwards);
// diverging RSP displacements invalidate slot addressing entirely. When
// widen is set the interval components widen instead of joining, which
// bounds ascending chains through loop back edges.
func (s *state) joinInto(o *state, widen bool) bool {
	changed := false
	jv := join
	if widen {
		jv = widenValue
	}
	for i := range s.regs {
		if joinValue(&s.regs[i], o.regs[i], jv) {
			changed = true
		}
	}
	if o.free && !s.free {
		s.free = true
		changed = true
	}
	if s.rspOK && (!o.rspOK || s.rsp != o.rsp) {
		s.rspOK = false
		changed = true
	}
	if !s.rspOK && s.frameOK {
		s.loseFrame()
		changed = true
	}
	// Intersect the two sorted frames in place.
	kept, j := 0, 0
	for _, sl := range s.frame {
		for j < len(o.frame) && o.frame[j].off < sl.off {
			j++
		}
		if j == len(o.frame) || o.frame[j].off != sl.off {
			changed = true
			continue
		}
		if joinValue(&sl.v, o.frame[j].v, jv) {
			changed = true
		}
		s.frame[kept] = sl
		kept++
	}
	s.frame = s.frame[:kept]
	return changed
}

// joinValue joins o into *v with jv (join or widenValue), reporting
// whether *v changed. Equal canonical values skip the join, which is
// idempotent on them.
func joinValue(v *Value, o Value, jv func(a, b Value) Value) bool {
	if v.eq(o) && v.canonical() {
		return false
	}
	j := jv(*v, o)
	if j.eq(*v) {
		return false
	}
	*v = j
	return true
}

// refineByCond narrows the numeric ranges of the compared registers along
// one outgoing edge of a conditional branch: cond is the branch
// condition, taken selects the edge (the fall-through edge refines by the
// negated condition). Only values whose interval has numeric meaning are
// refined — comparing absolute pointer addresses says nothing about
// region-relative offsets. A refinement that would empty an interval
// (statically infeasible edge) is skipped: propagating the original state
// stays sound.
func refineByCond(st *state, cmp cmpFact, cond isa.Cond, taken bool) {
	if !cmp.ok || !cmp.r1.Valid() {
		return
	}
	if !taken {
		cond = negateCond(cond)
		if cond == isa.CondNone {
			return
		}
	}
	lhs := st.reg(cmp.r1)
	rhs := numVal(ivConst(cmp.imm))
	if !cmp.hasImm {
		if !cmp.r2.Valid() {
			return
		}
		rhs = st.reg(cmp.r2)
	}
	apply := func(r isa.Reg, v Value, bound Interval) {
		if !r.Valid() || (v.Tag != TagNotPtr && v.Tag != TagWild) {
			return
		}
		m := ivMeet(v.Rng, bound)
		if m.Empty() {
			return
		}
		v.Rng = m
		st.regs[r] = v
	}
	lb, rb := numRng(lhs), numRng(rhs)
	unsignedOK := !lb.Empty() && !rb.Empty() && lb.Lo >= 0 && rb.Lo >= 0
	switch cond {
	case isa.CondE:
		apply(cmp.r1, lhs, rb)
		if !cmp.hasImm {
			apply(cmp.r2, rhs, lb)
		}
	case isa.CondB, isa.CondBE, isa.CondA, isa.CondAE:
		// Unsigned orders coincide with signed ones only when both sides
		// are known non-negative.
		if !unsignedOK {
			return
		}
		fallthrough
	case isa.CondL, isa.CondLE, isa.CondG, isa.CondGE:
		lt := cond == isa.CondL || cond == isa.CondB
		le := cond == isa.CondLE || cond == isa.CondBE
		gt := cond == isa.CondG || cond == isa.CondA
		ge := cond == isa.CondGE || cond == isa.CondAE
		switch {
		case lt: // r1 < rhs
			apply(cmp.r1, lhs, Interval{Lo: negInf, Hi: satAdd(rb.Hi, -1)})
			if !cmp.hasImm {
				apply(cmp.r2, rhs, Interval{Lo: satAdd(lb.Lo, 1), Hi: posInf})
			}
		case le:
			apply(cmp.r1, lhs, Interval{Lo: negInf, Hi: rb.Hi})
			if !cmp.hasImm {
				apply(cmp.r2, rhs, Interval{Lo: lb.Lo, Hi: posInf})
			}
		case gt:
			apply(cmp.r1, lhs, Interval{Lo: satAdd(rb.Lo, 1), Hi: posInf})
			if !cmp.hasImm {
				apply(cmp.r2, rhs, Interval{Lo: negInf, Hi: satAdd(lb.Hi, -1)})
			}
		case ge:
			apply(cmp.r1, lhs, Interval{Lo: rb.Lo, Hi: posInf})
			if !cmp.hasImm {
				apply(cmp.r2, rhs, Interval{Lo: negInf, Hi: lb.Hi})
			}
		}
	case isa.CondS:
		apply(cmp.r1, lhs, Interval{Lo: negInf, Hi: -1})
	case isa.CondNS:
		apply(cmp.r1, lhs, Interval{Lo: 0, Hi: posInf})
	}
}

// negateCond returns the condition selecting the fall-through edge, or
// CondNone when the negation is not representable.
func negateCond(c isa.Cond) isa.Cond {
	switch c {
	case isa.CondE:
		return isa.CondNE
	case isa.CondNE:
		return isa.CondE
	case isa.CondL:
		return isa.CondGE
	case isa.CondGE:
		return isa.CondL
	case isa.CondLE:
		return isa.CondG
	case isa.CondG:
		return isa.CondLE
	case isa.CondB:
		return isa.CondAE
	case isa.CondAE:
		return isa.CondB
	case isa.CondBE:
		return isa.CondA
	case isa.CondA:
		return isa.CondBE
	case isa.CondS:
		return isa.CondNS
	case isa.CondNS:
		return isa.CondS
	}
	return isa.CondNone
}

// Analyze runs the static pointer-flow analysis over prog.
func Analyze(prog *asm.Program, opt Options) (*Analysis, error) {
	g := BuildCFG(prog, opt.Harts)
	a := &Analysis{
		CFG:        g,
		Sites:      map[SiteKey]*Site{},
		regions:    map[string]*region{},
		relocSlot:  map[uint64]string{},
		globals:    prog.SortedGlobals(),
		poison:     bot,
		unresolved: map[uint64]bool{},
	}
	for _, addr := range g.Unresolved {
		a.unresolved[addr] = true
	}
	a.Harts = opt.Harts
	if a.Harts <= 0 {
		a.Harts = 1
	}
	a.CtxK = opt.ContextK
	switch {
	case a.CtxK == 0 || a.CtxK > 2:
		a.CtxK = 2
	case a.CtxK < 0:
		a.CtxK = -1
	}
	a.Stats.Blocks = len(g.Blocks)
	a.Stats.Insts = len(prog.Insts)
	a.Stats.UnresolvedIndirects = len(g.Unresolved)
	a.seedRegions(prog)
	if len(g.Blocks) == 0 {
		return a, nil
	}

	db := tracker.NewRuleDB()
	var dec decode.Decoder
	uopBuf := make([]isa.Uop, 0, 8)

	maxTransfers := opt.MaxTransfers
	if maxTransfers == 0 {
		// Generous: lattice height per fact is small, so fixpoints settle in
		// a handful of sweeps even with region-summary restarts.
		maxTransfers = (len(g.Blocks) + 1) * 4096
	}

	in := make([]*state, len(g.Blocks))
	dirty := make([]bool, len(g.Blocks))
	joins := make([]int, len(g.Blocks))
	var work []int
	push := func(id int) {
		if !dirty[id] {
			dirty[id] = true
			work = append(work, id)
		}
	}
	for _, e := range g.Entries {
		in[e] = newEntryState()
		push(e)
	}

	regionsDirty := false
	a.onRegionChange = func() { regionsDirty = true }

	// Every transfer runs on the scratch state st; edgeState (context.go)
	// refines a copy of it into edge on JCC edges. The context-sensitive
	// pass does the same with a pair of its own.
	var st, edge state

	for len(work) > 0 {
		id := work[0]
		work = work[1:]
		dirty[id] = false

		a.Stats.Transfers++
		if a.Stats.Transfers > maxTransfers {
			return nil, fmt.Errorf("ptrflow: fixpoint exceeded %d block transfers (diverging lattice?)", maxTransfers)
		}

		st.copyFrom(in[id])
		cmp := a.transferBlock(g, &g.Blocks[id], &st, db, &dec, &uopBuf, nil)

		for _, succ := range g.Blocks[id].Succs {
			es := edgeState(&g.Blocks[id], &st, cmp, succ, &edge)
			if in[succ] == nil {
				in[succ] = es.clone()
				push(succ)
			} else if in[succ].joinInto(es, joins[succ] >= widenAfter) {
				joins[succ]++
				push(succ)
			}
		}
		// A region summary grew: facts read through it anywhere may be
		// stale, so restart the sweep over every reached block.
		if regionsDirty && len(work) == 0 {
			regionsDirty = false
			for id := range in {
				if in[id] != nil {
					push(id)
				}
			}
		}
	}

	// Narrowing: re-apply the transfer to the (widened) post-fixpoint a
	// bounded number of times. Every re-application descends while still
	// over-approximating the least fixpoint — the transfer is monotone
	// and in is a post-fixpoint — so widened loop bounds recover the
	// precision the back-edge refinements provide.
	a.onRegionChange = nil
	for sweep := 0; sweep < narrowSweeps; sweep++ {
		next := make([]*state, len(g.Blocks))
		for _, e := range g.Entries {
			next[e] = newEntryState()
		}
		for id := range g.Blocks {
			if in[id] == nil {
				continue
			}
			a.Stats.Transfers++
			st.copyFrom(in[id])
			cmp := a.transferBlock(g, &g.Blocks[id], &st, db, &dec, &uopBuf, nil)
			for _, succ := range g.Blocks[id].Succs {
				es := edgeState(&g.Blocks[id], &st, cmp, succ, &edge)
				if next[succ] == nil {
					next[succ] = es.clone()
				} else {
					next[succ].joinInto(es, false)
				}
			}
		}
		for id := range in {
			if next[id] != nil {
				in[id] = next[id]
			}
		}
	}
	a.blockIn = in

	// Final pass over the fixpoint: record per-site verdicts, allocation
	// sizes and release reachability.
	a.collect = true
	a.allocMin = -1
	for bi := range g.Blocks {
		if in[bi] == nil {
			a.recordUnreached(g, &g.Blocks[bi], &dec, &uopBuf)
			continue
		}
		st.copyFrom(in[bi])
		a.transferBlock(g, &g.Blocks[bi], &st, db, &dec, &uopBuf, a.recordSite)
	}
	a.collect = false
	if !a.allocUnknown && a.allocMin > 0 {
		a.HeapMinChunk = uint64(a.allocMin)
	}
	a.finish()

	// Context-sensitive pass (context.go): a second fixpoint over
	// (block, k-limited call string) nodes with valid-path call/return
	// matching, reading the region summaries above frozen. It only adds
	// per-context refinements (Site.Ctxs, per-context invariants and
	// proofs); every context-insensitive result stands as computed.
	if a.CtxK >= 1 {
		a.frozen = true
		err := a.analyzeContexts(db, &dec, &uopBuf, maxTransfers)
		a.frozen = false
		if err != nil {
			return nil, err
		}
	}
	return a, nil
}

const (
	// widenAfter is the number of changing joins a block tolerates before
	// interval widening kicks in on its entry state.
	widenAfter = 3
	// narrowSweeps is the number of descending re-applications of the
	// transfer after the widened fixpoint.
	narrowSweeps = 2
)

// seedRegions computes each global's static-initializer contribution and
// coverage from the loader's Data words and relocation entries.
func (a *Analysis) seedRegions(prog *asm.Program) {
	for _, r := range prog.Relocs {
		a.relocSlot[r.Slot] = r.Target
	}
	covered := map[string]map[uint64]bool{}
	slot := func(g *asm.Global, addr uint64, v Value) {
		r := a.region(g.Name)
		r.init = join(r.init, v)
		if covered[g.Name] == nil {
			covered[g.Name] = map[uint64]bool{}
		}
		covered[g.Name][addr&^7] = true
	}
	for _, g := range prog.Globals {
		a.region(g.Name) // materialize, covered computed below
	}
	for _, d := range prog.Data {
		if g := a.globalAt(d.Addr); g != nil {
			slot(g, d.Addr, numVal(ivConst(int64(d.Val))))
		}
	}
	for _, rl := range prog.Relocs {
		if g := a.globalAt(rl.Slot); g != nil {
			slot(g, rl.Slot, ptrVal(rl.Target, ivConst(0)))
		}
	}
	for i := range a.globals {
		g := &a.globals[i]
		words := (g.Size + 7) / 8
		a.region(g.Name).covered = uint64(len(covered[g.Name])) >= words && words > 0
	}
}

func (a *Analysis) region(name string) *region {
	r, ok := a.regions[name]
	if !ok {
		r = &region{init: bot, stores: bot}
		a.regions[name] = r
	}
	return r
}

// globalAt returns the global containing addr, or nil.
func (a *Analysis) globalAt(addr uint64) *asm.Global {
	i := sort.Search(len(a.globals), func(i int) bool {
		return a.globals[i].Addr+a.globals[i].Size > addr
	})
	if i < len(a.globals) && a.globals[i].Addr <= addr {
		return &a.globals[i]
	}
	return nil
}

func (a *Analysis) regionNameAt(addr uint64) string {
	if g := a.globalAt(addr); g != nil {
		return g.Name
	}
	return unmappedRegion
}

// readRegion returns the abstract alias-table content for any address
// inside the named region: the join of static initializers and dynamic
// stores. Regions that are not fully covered by explicit initializers
// exclude the implicit-zero baseline from the join — instead, reads carry
// the Assumed taint (the init-order assumption).
func (a *Analysis) readRegion(name string) Value {
	r := a.region(name)
	v := join(r.init, r.stores)
	v = join(v, a.poison)
	if v.Tag == TagBot {
		return zeroVal // nothing is ever written: implicit zero, sound
	}
	if !r.covered {
		if v.Tag != TagNotPtr {
			v.Assumed = true
		}
		// Words without an explicit initializer read as zero until
		// written; fold that into the numeric range. (For pointer-tagged
		// summaries the interval constrains only tagged runtime values —
		// an uninitialized word is untagged — but widening by zero stays
		// sound either way.)
		if v.rangeMeaningful() {
			v.Rng = ivJoin(v.Rng, ivConst(0))
		}
	}
	return v
}

// relocRead returns the value loaded from an exact relocation slot: the
// loader seeded its alias with the target global's PID, so the result is
// a sound pointer into the target — joined with any dynamic stores that
// may have overwritten the slot's containing region.
func (a *Analysis) relocRead(slotAddr uint64) Value {
	v := ptrVal(a.relocSlot[slotAddr], ivConst(0))
	cont := a.region(a.regionNameAt(slotAddr))
	if cont.stores.Tag != TagBot {
		v = join(v, cont.stores)
	}
	if a.poison.Tag != TagBot {
		v = join(v, a.poison)
	}
	return v
}

// joinStore accumulates a dynamic store into a region summary, flagging a
// fixpoint restart when the summary grows.
func (a *Analysis) joinStore(name string, v Value) {
	if a.frozen {
		// Context pass: the summaries already over-approximate every
		// store (the insensitive fixpoint saw a superset of the states),
		// and regions stay context-insensitive by design — shared memory
		// has no owning call string.
		return
	}
	r := a.region(name)
	j := join(r.stores, v)
	if !j.eq(r.stores) {
		// Region summaries sit outside the per-block widening: every
		// growth restarts the fixpoint, so an interval climbing with a
		// loop counter would restart forever. Widen after the same
		// tolerance the block states get.
		r.grows++
		if r.grows > widenAfter {
			j = widenValue(r.stores, j)
		}
		r.stores = j
		if a.onRegionChange != nil {
			a.onRegionChange()
		}
	}
}

// poisonAll records a store whose effective address the analysis cannot
// bound: it may hit any region (and any stack slot), so its value joins
// every summary and the final pass demotes all verdicts to Assumed.
func (a *Analysis) poisonAll(v Value) {
	if a.frozen {
		return // already accounted by the insensitive fixpoint
	}
	j := join(a.poison, v)
	if !j.eq(a.poison) {
		a.poisonGrows++
		if a.poisonGrows > widenAfter {
			j = widenValue(a.poison, j)
		}
		a.poison = j
		if a.onRegionChange != nil {
			a.onRegionChange()
		}
	}
	a.Stats.UnknownEAStores++
}

// derefVal mirrors Engine.DerefPID abstractly: the base register's tag,
// falling back to the index register when the base tag is zero.
func derefVal(st *state, m isa.MemRef) Value {
	b := st.reg(m.Base)
	ix := st.reg(m.Index)
	switch b.Tag {
	case TagNotPtr:
		return ix
	case TagPtr, TagWild:
		return b
	case TagBot:
		return bot
	default: // Top: the base may or may not fall back to the index
		return join(b, ix)
	}
}

// eaPointer selects the pointer through which a memory micro-op's
// effective address is formed, for region attribution. The bool is false
// when the EA cannot be bounded (arbitrary integer arithmetic, wild or
// unbounded operands).
func eaPointer(st *state, m isa.MemRef) (Value, bool) {
	b := st.reg(m.Base)
	ix := st.reg(m.Index)
	var p Value
	switch {
	case b.Tag == TagPtr:
		p = b
	case b.Tag == TagNotPtr && ix.Tag == TagPtr:
		p = ix
	default:
		return top, false
	}
	if p.Region == "" {
		return top, false
	}
	return p, true
}

// siteFn observes each memory micro-op's deref value and effective-
// address attribution during the final fixpoint pass.
type siteFn func(in *isa.Inst, u *isa.Uop, deref Value, ea eaFact)

// eaFact is the static attribution of one memory micro-op's effective
// address at one program point: the region it falls in, the byte-offset
// interval from the region base, and the temporal release fact. OK is
// false when the address cannot be attributed to a single region.
type eaFact struct {
	OK      bool
	Region  string
	Off     Interval
	Size    uint32
	Free    bool // a heap release may precede this point
	Assumed bool // attribution rests on the init-order assumption
}

// transferBlock interprets one basic block's macro-ops on st, mirroring
// the engine's per-uop semantics exactly (see internal/tracker/engine.go).
// The returned cmpFact describes the last valid CMP before the block's
// terminating branch, for edge refinement.
func (a *Analysis) transferBlock(g *CFG, b *Block, st *state, db *tracker.RuleDB, dec *decode.Decoder, buf *[]isa.Uop, site siteFn) cmpFact {
	prog := g.Prog
	var cmp cmpFact
	for idx := b.Start; idx < b.End; idx++ {
		in := &prog.Insts[idx]
		uops := dec.Native(in, (*buf)[:0])
		*buf = uops

		for i := range uops {
			u := &uops[i]
			if site != nil && u.Type.IsMem() {
				site(in, u, derefVal(st, u.Mem), a.eaFactOf(st, u))
			}
			a.transferUop(st, u, db, &cmp)
		}
		if in.Op == isa.CALL {
			switch {
			case in.Dst.Kind != isa.OpReg && prog.At(in.Target) == nil:
				a.applyExternalCall(st, in.Target)
			case in.Dst.Kind == isa.OpReg && a.unresolved[in.Addr]:
				// An indirect call with no hint set could reach anything.
				a.applyExternalCall(st, 0)
			}
		}
	}
	return cmp
}

// transferUop applies one micro-op's tracker effect to the abstract state
// and maintains the block-local compare fact.
func (a *Analysis) transferUop(st *state, u *isa.Uop, db *tracker.RuleDB, cmp *cmpFact) {
	switch u.Type {
	case isa.ULoad:
		cmp.invalidateOnWrite(u.Dst)
		v := a.loadValue(st, u)
		// Sub-word loads cannot reload a pointer: the pipeline skips
		// ResolveLoad entirely, leaving the destination tag unchanged.
		// The destination's numeric value does change, though: a stale
		// interval would be unsound, so it resets to the widest range
		// the loaded width can produce.
		if u.AccessSize() < 8 {
			if u.Dst.Valid() && u.Dst != isa.FLAGS {
				d := st.regs[u.Dst]
				// The loaded value is zero-extended into the register, so
				// a numeric range is exact; a surviving pointer tag now
				// covers an arbitrary value, so its offset is unbounded.
				if d.Tag == TagNotPtr || d.Tag == TagWild {
					d.Rng = subWordRange(u.AccessSize())
				} else {
					d.Rng = ivFull
				}
				st.regs[u.Dst] = d
			}
			return
		}
		// ResolveLoad always propagates the actual alias-table PID to the
		// destination — including zero.
		if u.Dst.Valid() {
			st.regs[u.Dst] = v
		}

	case isa.UStore:
		sv := memVal(st.reg(u.Src1))
		if u.AccessSize() < 8 {
			// Sub-word stores force the alias-clear path, and partially
			// overwrite a word whose resulting numeric value is unbounded.
			sv = Value{Tag: TagNotPtr, Assumed: sv.Assumed, Rng: ivFull}
		}
		a.storeEffect(st, u, sv)

	case isa.UJump, isa.UBranch, isa.UNop:
		// No register-tag effect (no destination register).

	default: // UMov, ULimm, UAlu, ULea
		a.transferArith(st, u, db, cmp)
	}
}

// subWordRange is the widest zero-extended value a sub-word load can
// produce.
func subWordRange(size uint32) Interval {
	if size >= 8 || size == 0 {
		return ivFull
	}
	return Interval{Lo: 0, Hi: int64(1)<<(8*uint(size)) - 1}
}

// transferArith applies a register-writing micro-op: the tag component
// through the sampled Table-I rule (applyRegRule), the interval component
// structurally from the micro-op's arithmetic, and the compare fact.
func (a *Analysis) transferArith(st *state, u *isa.Uop, db *tracker.RuleDB, cmp *cmpFact) {
	// Capture sources before the destination is overwritten. LEA reads
	// its memory-operand registers (matching applyRegRule).
	v1 := st.reg(u.Src1)
	v2 := notPtr
	if !u.HasImm && u.Src2.Valid() {
		v2 = st.reg(u.Src2)
	}
	if u.Type == isa.ULea {
		v1 = st.reg(u.Mem.Base)
		v2 = st.reg(u.Mem.Index)
	}
	if u.Type == isa.UAlu {
		// Every ALU macro-op rewrites FLAGS, so an older compare no
		// longer describes the flags a later JCC evaluates.
		cmp.ok = false
		if u.Alu == isa.AluCmp {
			*cmp = cmpFact{ok: true, r1: u.Src1, r2: isa.RNone, imm: u.Imm, hasImm: u.HasImm}
			if !u.HasImm {
				cmp.r2 = u.Src2
			}
		}
	}
	cmp.invalidateOnWrite(u.Dst)

	a.trackRSP(st, u)
	a.applyRegRule(st, u, db)
	if !u.Dst.Valid() || u.Dst == isa.FLAGS {
		return
	}
	res := st.regs[u.Dst]
	res.Rng = rngTransfer(u, res, v1, v2)
	if !res.rangeMeaningful() {
		res.Rng = ivFull
	}
	st.regs[u.Dst] = res
}

// rngTransfer computes the interval component of a register-writing
// micro-op's result. res carries the already-computed tag and region, so
// pointer arithmetic can be attributed to the surviving pointer operand;
// v1/v2 are the pre-overwrite source values (LEA's memory registers for
// ULea).
func rngTransfer(u *isa.Uop, res Value, v1, v2 Value) Interval {
	imm := func() Interval { return ivConst(u.Imm) }
	rhs := func() Interval {
		if u.HasImm {
			return imm()
		}
		return numRng(v2)
	}
	switch u.Type {
	case isa.ULimm:
		return imm()

	case isa.UMov:
		// The tag rule copies the value wholesale; its interval keeps
		// whatever meaning the source had, matching the copied tag.
		return v1.Rng

	case isa.ULea:
		return leaRange(res, v1, v2, u.Mem)

	case isa.UAlu:
		switch u.Alu {
		case isa.AluAdd:
			return addRange(res, v1, v2, u.HasImm, imm())
		case isa.AluSub:
			if res.Tag == TagPtr && res.Region != "" && v1.Tag == TagPtr && v1.Region == res.Region {
				return ivSub(v1.Rng, rhs())
			}
			return ivSub(numRng(v1), rhs())
		case isa.AluAnd:
			if u.HasImm {
				return ivAndMask(numRng(v1), u.Imm)
			}
			n1, n2 := numRng(v1), numRng(v2)
			if !n1.Empty() && !n2.Empty() && n1.Lo >= 0 && n2.Lo >= 0 {
				return Interval{Lo: 0, Hi: min64(n1.Hi, n2.Hi)}
			}
			return ivFull
		case isa.AluShl:
			if u.HasImm {
				return ivShl(numRng(v1), u.Imm)
			}
			return ivFull
		case isa.AluShr:
			if u.HasImm {
				return ivShr(numRng(v1), u.Imm)
			}
			return ivFull
		case isa.AluMul:
			return ivMul(numRng(v1), rhs())
		case isa.AluXor:
			if !u.HasImm && u.Src1 == u.Src2 && u.Src1.Valid() {
				return ivConst(0) // xor-self zero idiom
			}
			return ivFull
		case isa.AluOr:
			n1, n2 := numRng(v1), numRng(v2)
			if u.HasImm {
				n2 = imm()
			}
			if !n1.Empty() && !n2.Empty() && n1.Lo >= 0 && n2.Lo >= 0 &&
				n1.Hi != posInf && n2.Hi != posInf {
				// OR cannot clear bits: the result fits in the union of
				// both operands' bit widths.
				return Interval{Lo: max64(n1.Lo, n2.Lo), Hi: orCeil(n1.Hi, n2.Hi)}
			}
			return ivFull
		}
		return ivFull
	}
	return ivFull
}

// orCeil returns the smallest all-ones value covering both operands: a
// sound upper bound for bitwise OR of non-negative values.
func orCeil(a, b int64) int64 {
	m := a | b
	for m&(m+1) != 0 {
		m |= m >> 1
	}
	return m
}

// addRange computes the interval of an addition whose result tag and
// region attribution are already known: pointer ± number advances the
// offset, number + number adds the ranges, anything else is unbounded.
func addRange(res, v1, v2 Value, hasImm bool, imm Interval) Interval {
	rhs := imm
	if !hasImm {
		rhs = numRng(v2)
	}
	if res.Tag == TagPtr && res.Region != "" {
		switch {
		case v1.Tag == TagPtr && v1.Region == res.Region && (hasImm || v2.Tag != TagPtr):
			return ivAdd(v1.Rng, rhs)
		case !hasImm && v2.Tag == TagPtr && v2.Region == res.Region && v1.Tag != TagPtr:
			return ivAdd(v2.Rng, numRng(v1))
		}
		return ivFull
	}
	return ivAdd(numRng(v1), rhs)
}

// leaRange computes the interval of a LEA result: base + index*scale +
// disp, attributed to the surviving pointer operand when the result is a
// region pointer, plain arithmetic when every operand is numeric.
func leaRange(res Value, base, index Value, m isa.MemRef) Interval {
	scale := int64(m.Scale)
	if scale == 0 {
		scale = 1
	}
	ix := ivConst(0)
	if m.Index.Valid() {
		ix = ivScale(numRng(index), scale)
	}
	if res.Tag == TagPtr && res.Region != "" {
		switch {
		case m.Base.Valid() && base.Tag == TagPtr && base.Region == res.Region &&
			(!m.Index.Valid() || index.Tag != TagPtr):
			return ivAddConst(ivAdd(base.Rng, ix), m.Disp)
		case m.Index.Valid() && index.Tag == TagPtr && index.Region == res.Region &&
			scale == 1 && (!m.Base.Valid() || base.Tag != TagPtr):
			b := ivConst(0)
			if m.Base.Valid() {
				b = numRng(base)
			}
			return ivAddConst(ivAdd(index.Rng, b), m.Disp)
		}
		return ivFull
	}
	b := ivConst(0)
	if m.Base.Valid() {
		b = numRng(base)
	}
	return ivAddConst(ivAdd(b, ix), m.Disp)
}

// eaFactOf attributes a memory micro-op's effective address to a region
// and offset interval at the current program point.
func (a *Analysis) eaFactOf(st *state, u *isa.Uop) eaFact {
	m := u.Mem
	f := eaFact{Size: u.AccessSize(), Free: st.free, Off: ivFull}
	if !m.Base.Valid() && !m.Index.Valid() {
		g := a.globalAt(uint64(m.Disp))
		if g == nil {
			return f
		}
		f.OK = true
		f.Region = g.Name
		f.Off = ivConst(m.Disp - int64(g.Addr))
		return f
	}
	scale := int64(m.Scale)
	if scale == 0 {
		scale = 1
	}
	b := st.reg(m.Base)
	ix := st.reg(m.Index)
	switch {
	case m.Base.Valid() && b.Tag == TagPtr && b.Region != "" &&
		(!m.Index.Valid() || ix.Tag != TagPtr):
		f.OK = true
		f.Region = b.Region
		f.Assumed = b.Assumed
		off := b.Rng
		if m.Index.Valid() {
			off = ivAdd(off, ivScale(numRng(ix), scale))
		}
		f.Off = ivAddConst(off, m.Disp)
	case m.Index.Valid() && ix.Tag == TagPtr && ix.Region != "" && scale == 1 &&
		(!m.Base.Valid() || b.Tag == TagNotPtr):
		f.OK = true
		f.Region = ix.Region
		f.Assumed = ix.Assumed
		off := ix.Rng
		if m.Base.Valid() {
			off = ivAdd(off, numRng(b))
		}
		f.Off = ivAddConst(off, m.Disp)
	}
	return f
}

// trackRSP maintains the concrete RSP displacement: immediate add/sub on
// RSP adjust it; any other RSP write destroys slot addressing.
func (a *Analysis) trackRSP(st *state, u *isa.Uop) {
	if u.Dst != isa.RSP {
		return
	}
	if u.Type == isa.UAlu && u.HasImm && u.Src1 == isa.RSP &&
		(u.Alu == isa.AluAdd || u.Alu == isa.AluSub) {
		if st.rspOK {
			if u.Alu == isa.AluAdd {
				st.rsp += u.Imm
			} else {
				st.rsp -= u.Imm
			}
		}
		return
	}
	st.rspOK = false
	st.loseFrame()
}

// applyRegRule is the abstract mirror of Engine.ApplyRegRule: first
// matching rule, sampled through absPropagate; no match clears the tag.
func (a *Analysis) applyRegRule(st *state, u *isa.Uop, db *tracker.RuleDB) {
	if !u.Dst.Valid() || u.Dst == isa.FLAGS {
		return
	}
	r := db.Match(u)
	if r == nil || r.Propagate == nil {
		st.regs[u.Dst] = notPtr
		return
	}
	v1 := st.reg(u.Src1)
	v2 := notPtr
	if !u.HasImm && u.Src2.Valid() {
		v2 = st.reg(u.Src2)
	}
	if u.Type == isa.ULea {
		v1 = st.reg(u.Mem.Base)
		v2 = st.reg(u.Mem.Index)
	}
	st.regs[u.Dst] = absPropagate(r, v1, v2)
}

// loadValue returns the abstract alias-table content at a load's
// effective address.
func (a *Analysis) loadValue(st *state, u *isa.Uop) Value {
	m := u.Mem
	if !m.Base.Valid() && !m.Index.Valid() {
		addr := uint64(m.Disp)
		if _, ok := a.relocSlot[addr]; ok {
			return a.relocRead(addr)
		}
		return a.readRegion(a.regionNameAt(addr))
	}
	if m.Base == isa.RSP && !m.Index.Valid() {
		if st.rspOK && st.frameOK {
			if v, ok := st.slotAt(st.rsp + m.Disp); ok {
				return v
			}
		}
		return top
	}
	p, ok := eaPointer(st, m)
	if !ok {
		return top
	}
	v := a.readRegion(p.Region)
	if p.Assumed {
		v.Assumed = true
	}
	return v
}

// storeEffect applies a store's alias-table effect: exact stack slots get
// strong updates, region-attributed addresses accumulate weakly, and
// unbounded addresses poison everything.
func (a *Analysis) storeEffect(st *state, u *isa.Uop, sv Value) {
	m := u.Mem
	if !m.Base.Valid() && !m.Index.Valid() {
		a.joinStore(a.regionNameAt(uint64(m.Disp)), sv)
		return
	}
	if m.Base == isa.RSP && !m.Index.Valid() {
		if st.rspOK && st.frameOK {
			st.setSlot(st.rsp+m.Disp, sv)
		} else {
			st.loseFrame() // somewhere on the stack: every slot is suspect
		}
		return
	}
	if p, ok := eaPointer(st, m); ok {
		a.joinStore(p.Region, sv)
		return
	}
	a.poisonAll(sv)
}

// applyExternalCall models a direct call that leaves program text. The
// allocator routines are intercepted by the OS/microcode (Section IV-C):
// they return to the call site with %rax carrying the fresh capability
// (malloc family) or with registers untouched (free). Unknown externals
// clobber everything.
func (a *Analysis) applyExternalCall(st *state, target uint64) {
	// The callee's synthetic RET pops the return address pushed by the
	// call's own store micro-op (already interpreted by the caller block).
	retPop := func() {
		if st.rspOK && st.frameOK {
			if v, ok := st.slotAt(st.rsp); ok {
				st.regs[isa.T0] = v
			} else {
				st.regs[isa.T0] = top
			}
		} else {
			st.regs[isa.T0] = top
		}
		if st.rspOK {
			st.rsp += 8
		}
	}
	switch target {
	case heap.MallocEntry, heap.CallocEntry, heap.ReallocEntry:
		if a.collect {
			// The size request in %rdi bounds the chunk below: the
			// allocator only ever rounds requests up.
			rdi := numRng(st.reg(isa.RDI))
			if rdi.Bounded() && rdi.Lo > 0 {
				if a.allocMin < 0 || rdi.Lo < a.allocMin {
					a.allocMin = rdi.Lo
				}
			} else {
				a.allocUnknown = true
			}
		}
		if target == heap.ReallocEntry {
			// Realloc may move (and thus release) the old chunk.
			st.free = true
		}
		retPop()
		// Capability transfer at allocator exit: %rax := the new PID.
		st.regs[isa.RAX] = ptrVal(HeapRegion, ivConst(0))
	case heap.FreeEntry:
		st.free = true
		retPop()
	default:
		// Unknown external code: nothing can be assumed — including that
		// no chunk was released.
		for i := range st.regs {
			st.regs[i] = top
		}
		st.rspOK = false
		st.loseFrame()
		st.free = true
		a.poisonAll(top)
	}
	if a.collect && target != heap.MallocEntry && target != heap.CallocEntry {
		a.AnyFree = true
	}
}

// recordSite folds one execution point's deref value and EA attribution
// into its site.
func (a *Analysis) recordSite(in *isa.Inst, u *isa.Uop, deref Value, ea eaFact) {
	k := SiteKey{Addr: in.Addr, MacroIdx: u.MacroIdx}
	s, ok := a.Sites[k]
	if !ok {
		s = &Site{Addr: in.Addr, MacroIdx: u.MacroIdx, Store: u.Type == isa.UStore,
			Inst: in.String(), Deref: bot}
		a.Sites[k] = s
	}
	if !s.Reached {
		s.EA = ea
	} else {
		s.EA = joinEA(s.EA, ea)
	}
	s.Reached = true
	s.Deref = join(s.Deref, deref)
}

// joinEA folds two effective-address attributions of the same site: the
// attribution survives only when both paths agree on the region.
func joinEA(a, b eaFact) eaFact {
	out := eaFact{
		OK:      a.OK && b.OK && a.Region == b.Region,
		Region:  a.Region,
		Off:     ivJoin(a.Off, b.Off),
		Free:    a.Free || b.Free,
		Assumed: a.Assumed || b.Assumed,
		Size:    a.Size,
	}
	if b.Size > out.Size {
		out.Size = b.Size
	}
	if !out.OK {
		out.Region = ""
		out.Off = ivFull
	}
	return out
}

// recordUnreached registers sites in blocks the dataflow never reached
// (code behind unresolved indirect branches) so runtime executions there
// are classified, not silently dropped.
func (a *Analysis) recordUnreached(g *CFG, b *Block, dec *decode.Decoder, buf *[]isa.Uop) {
	for idx := b.Start; idx < b.End; idx++ {
		in := &g.Prog.Insts[idx]
		uops := dec.Native(in, (*buf)[:0])
		*buf = uops
		for i := range uops {
			u := &uops[i]
			if !u.Type.IsMem() {
				continue
			}
			k := SiteKey{Addr: in.Addr, MacroIdx: u.MacroIdx}
			if _, ok := a.Sites[k]; !ok {
				a.Sites[k] = &Site{Addr: in.Addr, MacroIdx: u.MacroIdx,
					Store: u.Type == isa.UStore, Inst: in.String(), Deref: bot,
					EA: eaFact{Off: ivFull}}
			}
		}
	}
}

// finish derives verdicts and aggregate statistics from the folded sites.
func (a *Analysis) finish() {
	for _, s := range a.Sites {
		a.Stats.MemSites++
		if !s.Reached {
			s.Verdict = VerdictUnknown
			a.Stats.UnreachedSites++
			continue
		}
		s.Verdict = verdictOf(s.Deref)
		s.Assumed = s.Deref.Assumed
		// Any unbounded store makes every proof conditional.
		if a.Stats.UnknownEAStores > 0 {
			s.Assumed = true
		}
		switch s.Verdict {
		case VerdictPointer:
			a.Stats.PointerSites++
		case VerdictNotPointer:
			a.Stats.NotPointerSites++
		default:
			a.Stats.UnknownSites++
		}
		if s.Assumed {
			a.Stats.AssumedSites++
		}
	}
}

// SortedSites returns the sites ordered by (address, micro-op index).
func (a *Analysis) SortedSites() []*Site {
	out := make([]*Site, 0, len(a.Sites))
	for _, s := range a.Sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr < out[j].Addr
		}
		return out[i].MacroIdx < out[j].MacroIdx
	})
	return out
}

// RegionSummaries returns the region fixpoints sorted by name.
func (a *Analysis) RegionSummaries() []RegionSummary {
	names := make([]string, 0, len(a.regions))
	for n := range a.regions {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]RegionSummary, 0, len(names))
	for _, n := range names {
		r := a.regions[n]
		out = append(out, RegionSummary{Name: n, Init: r.init.String(),
			Stores: r.stores.String(), Covered: r.covered})
	}
	return out
}
