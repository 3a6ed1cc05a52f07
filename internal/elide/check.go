package elide

import (
	"fmt"
	"sort"

	"chex86/internal/asm"
	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/heap"
	"chex86/internal/isa"
	"chex86/internal/pipeline"
	"chex86/internal/ptrflow"
	"chex86/internal/tracker"
)

// The checker verifies a proof bundle without trusting the analyzer that
// produced it. It re-implements only the *local* pieces — the abstract
// transfer of one micro-op, conditional-edge refinement, region metadata
// recovered from the program image — and verifies that the bundle's
// per-block invariants are inductive under that transfer: entry states
// are covered, and every block's edge-out state is contained in the
// successor's invariant. The analyzer's fixpoint engine, widening,
// worklist and region-restart machinery (where an analysis bug would
// live) never participate; if the invariants are wrong the induction
// check fails and every proof is rejected. Shared leaf code is limited
// to interval arithmetic, CFG carving for direct branches, and µop
// decoding — and the checker's hardcoded tag semantics are themselves
// validated against the tracker's live rule database at init.

// fact is the checker's own abstract value: a tag name (the Fact tag
// constants of internal/ptrflow), the owning region for pointers, and
// the interval (numeric range, or region-relative offset range). The
// analyzer's init-order taint is deliberately absent: it qualifies
// cross-check verdicts, not safety proofs (an untagged value gets no
// capability check with or without elision).
type fact struct {
	tag    string
	region string
	rng    ptrflow.Interval
}

var (
	cNegInf = ptrflow.FullRange().Lo
	cPosInf = ptrflow.FullRange().Hi

	botF    = fact{tag: ptrflow.FactBot, rng: ptrflow.EmptyRange()}
	notPtrF = fact{tag: ptrflow.FactNotPtr, rng: ptrflow.FullRange()}
	topF    = fact{tag: ptrflow.FactTop, rng: ptrflow.FullRange()}
	zeroF   = fact{tag: ptrflow.FactNotPtr, rng: ptrflow.Const(0)}
)

func numF(iv ptrflow.Interval) fact { return fact{tag: ptrflow.FactNotPtr, rng: iv} }
func ptrF(region string, off ptrflow.Interval) fact {
	return fact{tag: ptrflow.FactPtr, region: region, rng: off}
}

func numericTag(t string) bool { return t == ptrflow.FactNotPtr || t == ptrflow.FactWild }

// meaningful reports whether the fact's interval carries a defined
// meaning (mirrors the ptrflow Value invariant).
func (f fact) meaningful() bool {
	return numericTag(f.tag) || (f.tag == ptrflow.FactPtr && f.region != "")
}

// numRngF is the sound numeric range of a fact: its interval for plain
// numbers and wild integers, unbounded for everything else.
func numRngF(f fact) ptrflow.Interval {
	if numericTag(f.tag) {
		return f.rng
	}
	return ptrflow.FullRange()
}

func joinFact(a, b fact) fact {
	if a.tag == ptrflow.FactBot {
		return b
	}
	if b.tag == ptrflow.FactBot {
		return a
	}
	out := fact{tag: ptrflow.FactTop}
	if a.tag == b.tag {
		out.tag = a.tag
	}
	if out.tag == ptrflow.FactPtr && a.region == b.region {
		out.region = a.region
	}
	switch {
	case numericTag(a.tag) && numericTag(b.tag):
		out.rng = a.rng.Join(b.rng)
	case a.tag == ptrflow.FactPtr && b.tag == ptrflow.FactPtr &&
		a.region == b.region && a.region != "":
		out.rng = a.rng.Join(b.rng)
	default:
		out.rng = ptrflow.FullRange()
	}
	if !out.meaningful() {
		out.rng = ptrflow.FullRange()
	}
	return out
}

// factLE is the checker's abstraction order: a ⊑ b means every concrete
// tracker state described by a is also described by b.
func factLE(a, b fact) bool {
	if a.tag == ptrflow.FactBot {
		return true
	}
	if b.tag == ptrflow.FactTop {
		return true
	}
	if a.tag != b.tag {
		return false
	}
	if a.tag == ptrflow.FactPtr {
		if b.region == "" {
			return true // region-less pointer: offset range is meaningless
		}
		if a.region != b.region {
			return false
		}
		return b.rng.Contains(a.rng)
	}
	if numericTag(a.tag) {
		return b.rng.Contains(a.rng)
	}
	return true // top ⊑ top handled above; bot handled first
}

// cstate is the checker's dataflow state (mirror of the analyzer's, with
// the checker's own fact domain). A decoded block invariant claim has the
// same shape, so claims are cstates too.
type cstate struct {
	regs    [isa.NumRegs]fact
	rsp     int64
	rspOK   bool
	frameOK bool    // false: slot addressing lost, every frame load reads top
	frame   []cslot // sorted by offset; empty unless frameOK
	free    bool
}

// cslot is one stack-frame slot's fact, keyed by entry-relative offset.
type cslot struct {
	off int64
	f   fact
}

func newEntryCState() *cstate {
	s := &cstate{rspOK: true, frameOK: true}
	for i := range s.regs {
		s.regs[i] = notPtrF
	}
	return s
}

// copyFrom overwrites s with o, reusing s's frame storage: the checker
// transfers every block on reused scratch states.
func (s *cstate) copyFrom(o *cstate) {
	frame := append(s.frame[:0], o.frame...)
	*s = *o
	s.frame = frame
}

func (s *cstate) reg(r isa.Reg) fact {
	if !r.Valid() {
		return notPtrF
	}
	return s.regs[r]
}

// slotIndex binary-searches the frame for off, returning its index or
// the index it would be inserted at.
func (s *cstate) slotIndex(off int64) (int, bool) {
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

// slotAt returns the fact of the frame slot at off.
func (s *cstate) slotAt(off int64) (fact, bool) {
	if i, ok := s.slotIndex(off); ok {
		return s.frame[i].f, true
	}
	return fact{}, false
}

// setSlot strongly updates the frame slot at off, inserting it in order.
func (s *cstate) setSlot(off int64, f fact) {
	i, ok := s.slotIndex(off)
	if !ok {
		s.frame = append(s.frame, cslot{})
		copy(s.frame[i+1:], s.frame[i:])
	}
	s.frame[i] = cslot{off: off, f: f}
}

// loseFrame drops slot addressing.
func (s *cstate) loseFrame() {
	s.frameOK = false
	s.frame = s.frame[:0]
}

// stateLE checks containment of a computed state in a claimed invariant.
// Claimed frame slots are checked in ascending offset order, so a failing
// claim always names the lowest failing slot.
func stateLE(s, inv *cstate) error {
	for i := range s.regs {
		if !factLE(s.regs[i], inv.regs[i]) {
			return fmt.Errorf("reg %s: %v ⋢ %v", isa.Reg(i), s.regs[i], inv.regs[i])
		}
	}
	if inv.rspOK && (!s.rspOK || s.rsp != inv.rsp) {
		return fmt.Errorf("rsp claim %d not established", inv.rsp)
	}
	if inv.frameOK {
		if !s.frameOK {
			return fmt.Errorf("frame claimed but slot addressing lost")
		}
		for _, c := range inv.frame {
			sv, ok := s.slotAt(c.off)
			if !ok || !factLE(sv, c.f) {
				return fmt.Errorf("frame slot %d: claim not established", c.off)
			}
		}
	}
	if s.free && !inv.free {
		return fmt.Errorf("heap-release fact not admitted by invariant")
	}
	return nil
}

// regionMeta is region metadata the checker recovers from the program
// image itself (never from the bundle).
type regionMeta struct {
	size     uint64
	readOnly bool
	covered  bool
	isGlobal bool
	init     fact
}

// cmpRec is the checker's block-local compare fact.
type cmpRec struct {
	ok     bool
	r1, r2 isa.Reg
	imm    int64
	hasImm bool
}

func (c *cmpRec) invalidateOnWrite(dst isa.Reg) {
	if c.ok && dst.Valid() && (dst == c.r1 || dst == c.r2) {
		c.ok = false
	}
}

// checker holds everything a bundle verification run needs.
type checker struct {
	prog   *asm.Program
	cfg    *ptrflow.CFG
	db     *tracker.RuleDB
	bundle *ptrflow.Bundle
	harts  int

	globals   []asm.Global
	regions   map[string]*regionMeta
	relocSlot map[uint64]string
	claims    map[string]fact // claimed region store summaries
	poison    fact            // claimed unknown-EA store contribution
	invs      map[int]*cstate // claimed block invariants

	// Context-sensitive layer claims: per-(block, call-string) invariants
	// and the deterministic order they were decoded in (the bundle's
	// canonical sorted order), which the per-context induction iterates.
	ctxInvs  map[ctxInvKey]*cstate
	ctxOrder []ctxInvKey

	// st and edge are the scratch states every block transfer and
	// refined edge is computed in.
	st, edge cstate

	anyFree     bool  // checker-derived release reachability
	heapMin     int64 // checker-derived min allocation lower bound (-1 unset)
	heapUnknown bool  // an allocation size could not be bounded below
	storeErr    error // first store-subsumption failure
	dec         decode.Decoder
	uopBuf      []isa.Uop
}

// newChecker builds the checker's own view of the program and decodes
// the bundle's claims. It returns an error for global preconditions that
// reject the whole bundle up front.
func newChecker(prog *asm.Program, b *ptrflow.Bundle, harts int) (*checker, error) {
	ck := &checker{
		prog:      prog,
		db:        tracker.NewRuleDB(),
		bundle:    b,
		harts:     harts,
		globals:   prog.SortedGlobals(),
		regions:   map[string]*regionMeta{},
		relocSlot: map[uint64]string{},
		claims:    map[string]fact{},
		invs:      map[int]*cstate{},
		ctxInvs:   map[ctxInvKey]*cstate{},
		heapMin:   -1,
	}
	if ck.harts <= 0 {
		ck.harts = 1
	}

	// Control flow must be fully resolved: an indirect branch can leave
	// the CFG the invariants describe, voiding the induction.
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if (in.Op == isa.JMP || in.Op == isa.CALL) && in.Dst.Kind == isa.OpReg {
			return nil, fmt.Errorf("indirect branch at %#x", in.Addr)
		}
	}
	ck.cfg = ptrflow.BuildCFG(prog, ck.harts)
	if len(ck.cfg.Unresolved) > 0 {
		return nil, fmt.Errorf("%d unresolved indirect branches", len(ck.cfg.Unresolved))
	}

	if err := ck.validateTrackerAssumptions(); err != nil {
		return nil, err
	}
	ck.recoverRegions()
	if err := ck.decodeClaims(); err != nil {
		return nil, err
	}
	return ck, nil
}

// validateTrackerAssumptions tests the class-abstraction assumptions the
// checker's tag transfer rests on against the live tracker semantics:
// (1) the dereference-capability selection falls back from an untagged
// base to the index, and (2) every register rule's propagation depends
// only on the {zero, wild, positive} class of each operand and selects
// one of the operands (or a fixed class) — which is what makes sampling
// with class representatives exhaustive.
func (ck *checker) validateTrackerAssumptions() error {
	reps := []core.PID{0, core.WildPID, 11}
	for _, x := range reps {
		if tracker.DerefSelect(0, x) != x {
			return fmt.Errorf("deref selection: untagged base must fall back to index")
		}
		if tracker.DerefSelect(11, x) != 11 || tracker.DerefSelect(core.WildPID, x) != core.WildPID {
			return fmt.Errorf("deref selection: tagged base must win")
		}
	}
	classOf := func(p core.PID) string {
		switch {
		case p == 0:
			return "zero"
		case p == core.WildPID:
			return "wild"
		default:
			return "pos"
		}
	}
	attrOf := func(p, a, b core.PID) string {
		switch {
		case p == a:
			return "src1"
		case p == b:
			return "src2"
		default:
			return classOf(p)
		}
	}
	classReps := map[string][]core.PID{"zero": {0}, "wild": {core.WildPID}, "pos": {11, 23}}
	classes := []string{"zero", "wild", "pos"}
	for _, r := range ck.db.Rules() {
		if r.Propagate == nil {
			continue
		}
		for _, ca := range classes {
			for _, cb := range classes {
				var want string
				first := true
				for _, a := range classReps[ca] {
					for _, b := range classReps[cb] {
						if ca == cb && ca == "pos" && a == b {
							continue // distinct operands exercise selection
						}
						got := attrOf(r.Propagate(a, b), a, b)
						if first {
							want, first = got, false
						} else if got != want {
							return fmt.Errorf("rule %q propagation is not class-deterministic (%s,%s)", r.Name, ca, cb)
						}
					}
				}
			}
		}
	}
	return nil
}

// recoverRegions rebuilds region metadata — sizes, writability, static
// initializers, initializer coverage — from the program image.
func (ck *checker) recoverRegions() {
	region := func(name string) *regionMeta {
		m, ok := ck.regions[name]
		if !ok {
			m = &regionMeta{init: botF}
			ck.regions[name] = m
		}
		return m
	}
	for i := range ck.globals {
		g := &ck.globals[i]
		m := region(g.Name)
		m.size = g.Size
		m.readOnly = g.ReadOnly
		m.isGlobal = true
	}
	for _, r := range ck.prog.Relocs {
		ck.relocSlot[r.Slot] = r.Target
	}
	covered := map[string]map[uint64]bool{}
	slot := func(g *asm.Global, addr uint64, v fact) {
		m := region(g.Name)
		m.init = joinFact(m.init, v)
		if covered[g.Name] == nil {
			covered[g.Name] = map[uint64]bool{}
		}
		covered[g.Name][addr&^7] = true
	}
	for _, d := range ck.prog.Data {
		if g := ck.globalAt(d.Addr); g != nil {
			slot(g, d.Addr, numF(ptrflow.Const(int64(d.Val))))
		}
	}
	for _, rl := range ck.prog.Relocs {
		if g := ck.globalAt(rl.Slot); g != nil {
			slot(g, rl.Slot, ptrF(rl.Target, ptrflow.Const(0)))
		}
	}
	for i := range ck.globals {
		g := &ck.globals[i]
		words := (g.Size + 7) / 8
		region(g.Name).covered = uint64(len(covered[g.Name])) >= words && words > 0
	}
}

func (ck *checker) globalAt(addr uint64) *asm.Global {
	i := sort.Search(len(ck.globals), func(i int) bool {
		return ck.globals[i].Addr+ck.globals[i].Size > addr
	})
	if i < len(ck.globals) && ck.globals[i].Addr <= addr {
		return &ck.globals[i]
	}
	return nil
}

func (ck *checker) regionNameAt(addr uint64) string {
	if g := ck.globalAt(addr); g != nil {
		return g.Name
	}
	return "@unmapped"
}

func factFrom(pf ptrflow.Fact) fact {
	return fact{tag: pf.Tag, region: pf.Region, rng: pf.Rng}
}

// decodeClaims converts the bundle's serialized claims into checker
// structures. Invariants are routed by claimed context: the ⊤ layer
// ("any", or an absent context for pre-context bundles) into invs, the
// per-context layer into ctxInvs keyed by the re-parsed call string.
// Context strings are verified well-formed here — structurally via
// ParseCallCtx, and semantically against the program: every site on a
// call string must be the address of an internal direct CALL, since
// those are the only events the runtime fold pushes.
func (ck *checker) decodeClaims() error {
	ck.poison = factFrom(ck.bundle.Poison)
	for _, rc := range ck.bundle.Regions {
		ck.claims[rc.Name] = factFrom(rc.Stores)
	}
	for i := range ck.bundle.Invariants {
		bi := &ck.bundle.Invariants[i]
		for j := 1; j < len(bi.Frame); j++ {
			if bi.Frame[j].Off <= bi.Frame[j-1].Off {
				return fmt.Errorf("invariant for block %d: frame slots not strictly ascending at offset %d",
					bi.Block, bi.Frame[j].Off)
			}
		}
		if len(bi.Regs) != int(isa.NumRegs) {
			continue // malformed claim: block treated as invariant-less
		}
		inv := &cstate{rspOK: bi.RSPOK, rsp: bi.RSP, frameOK: bi.FrameOK, free: bi.Free}
		for r := range inv.regs {
			inv.regs[r] = factFrom(bi.Regs[r])
		}
		if bi.FrameOK {
			inv.frame = make([]cslot, len(bi.Frame))
			for j, sf := range bi.Frame {
				inv.frame[j] = cslot{off: sf.Off, f: factFrom(sf.Fact)}
			}
		}
		if bi.Ctx == "" || bi.Ctx == pipeline.CtxAny.String() {
			ck.invs[bi.Block] = inv
			continue
		}
		ctx, err := pipeline.ParseCallCtx(bi.Ctx)
		if err != nil {
			return fmt.Errorf("invariant for block %d: %v", bi.Block, err)
		}
		if err := ck.validateCtx(ctx); err != nil {
			return fmt.Errorf("invariant for block %d: %v", bi.Block, err)
		}
		key := ctxInvKey{block: bi.Block, ctx: ctx}
		if _, dup := ck.ctxInvs[key]; dup {
			return fmt.Errorf("duplicate invariant claim for block %d context %s", bi.Block, bi.Ctx)
		}
		ck.ctxInvs[key] = inv
		ck.ctxOrder = append(ck.ctxOrder, key)
	}
	if len(ck.ctxOrder) > 0 && (ck.bundle.CtxK < 1 || ck.bundle.CtxK > 2) {
		return fmt.Errorf("per-context invariants claimed at unsupported k=%d", ck.bundle.CtxK)
	}
	return nil
}

// ctxInvKey identifies one claimed (block, call-string context)
// invariant.
type ctxInvKey struct {
	block int
	ctx   pipeline.CallCtx
}

// validateCtx checks a parsed call string against the program: every
// site must be an internal direct CALL instruction whose target is
// inside the program text — the only control transfers the runtime
// fold pushes, and therefore the only strings a live context can take.
func (ck *checker) validateCtx(ctx pipeline.CallCtx) error {
	for _, site := range [2]uint64{ctx.S0, ctx.S1} {
		if site == 0 {
			continue
		}
		in := ck.prog.At(site)
		if in == nil || in.Op != isa.CALL || in.Dst.Kind == isa.OpReg ||
			ck.prog.At(in.Target) == nil {
			return fmt.Errorf("call-string site %#x is not an internal CALL", site)
		}
	}
	return nil
}

func (ck *checker) claimedStores(name string) fact {
	if f, ok := ck.claims[name]; ok {
		return f
	}
	return botF
}

// verifyStore checks one dynamic store's contribution against the
// bundle's claimed summaries (region store claim, or the poison claim
// for unbounded addresses). The first failure rejects the bundle.
func (ck *checker) checkStoreClaim(target string, sv fact) {
	if ck.storeErr != nil {
		return
	}
	claim := ck.poison
	what := "poison"
	if target != "" {
		claim = ck.claimedStores(target)
		what = "region " + target
	}
	if !factLE(sv, claim) {
		ck.storeErr = fmt.Errorf("a store exceeds the claimed %s summary", what)
	}
}

// ---------------------------------------------------------------------------
// Transfer

// ruleFact abstracts one register rule by sampling its Propagate closure
// with class representatives — the checker's own implementation of the
// abstraction the class-determinism validation licenses.
func (ck *checker) ruleFact(u *isa.Uop, v1, v2 fact) fact {
	r := ck.db.Match(u)
	if r == nil || r.Propagate == nil {
		return notPtrF
	}
	reps := func(tag string, pos core.PID) []core.PID {
		switch tag {
		case ptrflow.FactBot, ptrflow.FactNotPtr:
			return []core.PID{0}
		case ptrflow.FactPtr:
			return []core.PID{pos}
		case ptrflow.FactWild:
			return []core.PID{core.WildPID}
		default:
			return []core.PID{0, pos, core.WildPID}
		}
	}
	out := botF
	for _, a := range reps(v1.tag, 11) {
		for _, b := range reps(v2.tag, 23) {
			pid := r.Propagate(a, b)
			f := fact{rng: ptrflow.FullRange()}
			switch {
			case pid == 0:
				f.tag = ptrflow.FactNotPtr
			case pid == core.WildPID:
				f.tag = ptrflow.FactWild
			default:
				f.tag = ptrflow.FactPtr
				switch pid {
				case a:
					f.region = v1.region
				case b:
					f.region = v2.region
				}
			}
			out = joinFact(out, f)
		}
	}
	return out
}

// derefFact abstracts the dereference-capability selection (validated
// against tracker.DerefSelect at init): the base register's fact, with
// index fallback when the base is untagged.
func derefFact(st *cstate, m isa.MemRef) fact {
	b := st.reg(m.Base)
	ix := st.reg(m.Index)
	switch b.tag {
	case ptrflow.FactNotPtr:
		return ix
	case ptrflow.FactPtr, ptrflow.FactWild:
		return b
	case ptrflow.FactBot:
		return botF
	default:
		return joinFact(b, ix)
	}
}

// eaPtrFact selects the pointer an effective address is formed through.
func eaPtrFact(st *cstate, m isa.MemRef) (fact, bool) {
	b := st.reg(m.Base)
	ix := st.reg(m.Index)
	var p fact
	switch {
	case b.tag == ptrflow.FactPtr:
		p = b
	case b.tag == ptrflow.FactNotPtr && ix.tag == ptrflow.FactPtr:
		p = ix
	default:
		return topF, false
	}
	if p.region == "" {
		return topF, false
	}
	return p, true
}

// eaBounds attributes a memory micro-op's effective address to a region
// and offset interval (the checker's own version of the analyzer's
// eaFact, used to re-derive every proof's bounds from scratch).
func (ck *checker) eaBounds(st *cstate, u *isa.Uop) (region string, off ptrflow.Interval, ok bool) {
	m := u.Mem
	if !m.Base.Valid() && !m.Index.Valid() {
		g := ck.globalAt(uint64(m.Disp))
		if g == nil {
			return "", ptrflow.FullRange(), false
		}
		return g.Name, ptrflow.Const(m.Disp - int64(g.Addr)), true
	}
	scale := int64(m.Scale)
	if scale == 0 {
		scale = 1
	}
	b := st.reg(m.Base)
	ix := st.reg(m.Index)
	switch {
	case m.Base.Valid() && b.tag == ptrflow.FactPtr && b.region != "" &&
		(!m.Index.Valid() || ix.tag != ptrflow.FactPtr):
		off = b.rng
		if m.Index.Valid() {
			off = off.Add(numRngF(ix).Scale(scale))
		}
		return b.region, off.AddConst(m.Disp), true
	case m.Index.Valid() && ix.tag == ptrflow.FactPtr && ix.region != "" && scale == 1 &&
		(!m.Base.Valid() || b.tag == ptrflow.FactNotPtr):
		off = ix.rng
		if m.Base.Valid() {
			off = off.Add(numRngF(b))
		}
		return ix.region, off.AddConst(m.Disp), true
	}
	return "", ptrflow.FullRange(), false
}

// readRegionF is the abstract alias-table content for addresses in a
// region: the checker's own initializer fact joined with the *claimed*
// store summary and poison (both verified inductively elsewhere).
func (ck *checker) readRegionF(name string) fact {
	m, ok := ck.regions[name]
	if !ok {
		m = &regionMeta{init: botF}
	}
	v := joinFact(m.init, ck.claimedStores(name))
	v = joinFact(v, ck.poison)
	if v.tag == ptrflow.FactBot {
		return zeroF
	}
	if !m.covered && v.meaningful() {
		v.rng = v.rng.Join(ptrflow.Const(0))
	}
	return v
}

func (ck *checker) relocReadF(slotAddr uint64) fact {
	v := ptrF(ck.relocSlot[slotAddr], ptrflow.Const(0))
	if cont := ck.claimedStores(ck.regionNameAt(slotAddr)); cont.tag != ptrflow.FactBot {
		v = joinFact(v, cont)
	}
	if ck.poison.tag != ptrflow.FactBot {
		v = joinFact(v, ck.poison)
	}
	return v
}

func (ck *checker) loadFact(st *cstate, u *isa.Uop) fact {
	m := u.Mem
	if !m.Base.Valid() && !m.Index.Valid() {
		addr := uint64(m.Disp)
		if _, ok := ck.relocSlot[addr]; ok {
			return ck.relocReadF(addr)
		}
		return ck.readRegionF(ck.regionNameAt(addr))
	}
	if m.Base == isa.RSP && !m.Index.Valid() {
		if st.rspOK && st.frameOK {
			if v, ok := st.slotAt(st.rsp + m.Disp); ok {
				return v
			}
		}
		return topF
	}
	p, ok := eaPtrFact(st, m)
	if !ok {
		return topF
	}
	return ck.readRegionF(p.region)
}

// memFact abstracts a store's alias-table-visible value: only genuine
// capabilities survive; wild and untagged stores behave as clears.
func memFact(v fact) fact {
	switch v.tag {
	case ptrflow.FactBot:
		return botF
	case ptrflow.FactPtr:
		return v
	case ptrflow.FactNotPtr, ptrflow.FactWild:
		return fact{tag: ptrflow.FactNotPtr, rng: v.rng}
	default:
		return topF
	}
}

func subWordRangeF(size uint32) ptrflow.Interval {
	if size >= 8 || size == 0 {
		return ptrflow.FullRange()
	}
	return ptrflow.Interval{Lo: 0, Hi: int64(1)<<(8*uint(size)) - 1}
}

func orCeilF(a, b int64) int64 {
	m := a | b
	for m&(m+1) != 0 {
		m |= m >> 1
	}
	return m
}

// rngOf is the checker's structural interval transfer for a
// register-writing micro-op (res carries the already-derived tag).
func rngOf(u *isa.Uop, res, v1, v2 fact) ptrflow.Interval {
	full := ptrflow.FullRange()
	imm := func() ptrflow.Interval { return ptrflow.Const(u.Imm) }
	rhs := func() ptrflow.Interval {
		if u.HasImm {
			return imm()
		}
		return numRngF(v2)
	}
	switch u.Type {
	case isa.ULimm:
		return imm()
	case isa.UMov:
		return v1.rng
	case isa.ULea:
		return leaRngF(res, v1, v2, u.Mem)
	case isa.UAlu:
		switch u.Alu {
		case isa.AluAdd:
			return addRngF(res, v1, v2, u.HasImm, imm())
		case isa.AluSub:
			if res.tag == ptrflow.FactPtr && res.region != "" &&
				v1.tag == ptrflow.FactPtr && v1.region == res.region {
				return v1.rng.Sub(rhs())
			}
			return numRngF(v1).Sub(rhs())
		case isa.AluAnd:
			if u.HasImm {
				return numRngF(v1).AndMask(u.Imm)
			}
			n1, n2 := numRngF(v1), numRngF(v2)
			if !n1.Empty() && !n2.Empty() && n1.Lo >= 0 && n2.Lo >= 0 {
				hi := n1.Hi
				if n2.Hi < hi {
					hi = n2.Hi
				}
				return ptrflow.Interval{Lo: 0, Hi: hi}
			}
			return full
		case isa.AluShl:
			if u.HasImm {
				return numRngF(v1).ShlBy(u.Imm)
			}
			return full
		case isa.AluShr:
			if u.HasImm {
				return numRngF(v1).ShrBy(u.Imm)
			}
			return full
		case isa.AluMul:
			return numRngF(v1).Mul(rhs())
		case isa.AluXor:
			if !u.HasImm && u.Src1 == u.Src2 && u.Src1.Valid() {
				return ptrflow.Const(0)
			}
			return full
		case isa.AluOr:
			n1, n2 := numRngF(v1), numRngF(v2)
			if u.HasImm {
				n2 = imm()
			}
			if !n1.Empty() && !n2.Empty() && n1.Lo >= 0 && n2.Lo >= 0 &&
				n1.Hi != cPosInf && n2.Hi != cPosInf {
				lo := n1.Lo
				if n2.Lo > lo {
					lo = n2.Lo
				}
				return ptrflow.Interval{Lo: lo, Hi: orCeilF(n1.Hi, n2.Hi)}
			}
			return full
		}
		return full
	}
	return full
}

func addRngF(res, v1, v2 fact, hasImm bool, imm ptrflow.Interval) ptrflow.Interval {
	rhs := imm
	if !hasImm {
		rhs = numRngF(v2)
	}
	if res.tag == ptrflow.FactPtr && res.region != "" {
		switch {
		case v1.tag == ptrflow.FactPtr && v1.region == res.region &&
			(hasImm || v2.tag != ptrflow.FactPtr):
			return v1.rng.Add(rhs)
		case !hasImm && v2.tag == ptrflow.FactPtr && v2.region == res.region &&
			v1.tag != ptrflow.FactPtr:
			return v2.rng.Add(numRngF(v1))
		}
		return ptrflow.FullRange()
	}
	return numRngF(v1).Add(rhs)
}

func leaRngF(res, base, index fact, m isa.MemRef) ptrflow.Interval {
	scale := int64(m.Scale)
	if scale == 0 {
		scale = 1
	}
	ix := ptrflow.Const(0)
	if m.Index.Valid() {
		ix = numRngF(index).Scale(scale)
	}
	if res.tag == ptrflow.FactPtr && res.region != "" {
		switch {
		case m.Base.Valid() && base.tag == ptrflow.FactPtr && base.region == res.region &&
			(!m.Index.Valid() || index.tag != ptrflow.FactPtr):
			return base.rng.Add(ix).AddConst(m.Disp)
		case m.Index.Valid() && index.tag == ptrflow.FactPtr && index.region == res.region &&
			scale == 1 && (!m.Base.Valid() || base.tag != ptrflow.FactPtr):
			b := ptrflow.Const(0)
			if m.Base.Valid() {
				b = numRngF(base)
			}
			return index.rng.Add(b).AddConst(m.Disp)
		}
		return ptrflow.FullRange()
	}
	b := ptrflow.Const(0)
	if m.Base.Valid() {
		b = numRngF(base)
	}
	return b.Add(ix).AddConst(m.Disp)
}

func trackRSPF(st *cstate, u *isa.Uop) {
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

// transferUop applies one micro-op to the checker state.
func (ck *checker) transferUop(st *cstate, u *isa.Uop, cmp *cmpRec) {
	switch u.Type {
	case isa.ULoad:
		cmp.invalidateOnWrite(u.Dst)
		v := ck.loadFact(st, u)
		if u.AccessSize() < 8 {
			if u.Dst.Valid() && u.Dst != isa.FLAGS {
				d := st.regs[u.Dst]
				if numericTag(d.tag) {
					d.rng = subWordRangeF(u.AccessSize())
				} else {
					d.rng = ptrflow.FullRange()
				}
				st.regs[u.Dst] = d
			}
			return
		}
		if u.Dst.Valid() {
			st.regs[u.Dst] = v
		}

	case isa.UStore:
		sv := memFact(st.reg(u.Src1))
		if u.AccessSize() < 8 {
			sv = fact{tag: ptrflow.FactNotPtr, rng: ptrflow.FullRange()}
		}
		ck.storeEffectF(st, u, sv)

	case isa.UJump, isa.UBranch, isa.UNop:
		// no register effect

	default: // UMov, ULimm, UAlu, ULea
		v1 := st.reg(u.Src1)
		v2 := notPtrF
		if !u.HasImm && u.Src2.Valid() {
			v2 = st.reg(u.Src2)
		}
		if u.Type == isa.ULea {
			v1 = st.reg(u.Mem.Base)
			v2 = st.reg(u.Mem.Index)
		}
		if u.Type == isa.UAlu {
			cmp.ok = false
			if u.Alu == isa.AluCmp {
				*cmp = cmpRec{ok: true, r1: u.Src1, r2: isa.RNone, imm: u.Imm, hasImm: u.HasImm}
				if !u.HasImm {
					cmp.r2 = u.Src2
				}
			}
		}
		cmp.invalidateOnWrite(u.Dst)
		trackRSPF(st, u)
		if !u.Dst.Valid() || u.Dst == isa.FLAGS {
			return
		}
		res := ck.ruleFact(u, v1, v2)
		res.rng = rngOf(u, res, v1, v2)
		if !res.meaningful() {
			res.rng = ptrflow.FullRange()
		}
		st.regs[u.Dst] = res
	}
}

func (ck *checker) storeEffectF(st *cstate, u *isa.Uop, sv fact) {
	m := u.Mem
	if !m.Base.Valid() && !m.Index.Valid() {
		ck.checkStoreClaim(ck.regionNameAt(uint64(m.Disp)), sv)
		return
	}
	if m.Base == isa.RSP && !m.Index.Valid() {
		if st.rspOK && st.frameOK {
			st.setSlot(st.rsp+m.Disp, sv)
		} else {
			st.loseFrame()
		}
		return
	}
	if p, ok := eaPtrFact(st, m); ok {
		ck.checkStoreClaim(p.region, sv)
		return
	}
	ck.checkStoreClaim("", sv)
}

// externalCallF mirrors the OS/microcode allocator interception and
// collects the checker's own allocation-size and release facts.
func (ck *checker) externalCallF(st *cstate, target uint64) {
	retPop := func() {
		if st.rspOK && st.frameOK {
			if v, ok := st.slotAt(st.rsp); ok {
				st.regs[isa.T0] = v
			} else {
				st.regs[isa.T0] = topF
			}
		} else {
			st.regs[isa.T0] = topF
		}
		if st.rspOK {
			st.rsp += 8
		}
	}
	switch target {
	case heap.MallocEntry, heap.CallocEntry, heap.ReallocEntry:
		rdi := numRngF(st.reg(isa.RDI))
		if rdi.Bounded() && rdi.Lo > 0 {
			if ck.heapMin < 0 || rdi.Lo < ck.heapMin {
				ck.heapMin = rdi.Lo
			}
		} else {
			ck.heapUnknown = true
		}
		if target == heap.ReallocEntry {
			st.free = true
		}
		retPop()
		st.regs[isa.RAX] = ptrF(ptrflow.HeapRegion, ptrflow.Const(0))
	case heap.FreeEntry:
		st.free = true
		retPop()
	default:
		for i := range st.regs {
			st.regs[i] = topF
		}
		st.rspOK = false
		st.loseFrame()
		st.free = true
		ck.checkStoreClaim("", topF)
	}
	if target != heap.MallocEntry && target != heap.CallocEntry {
		ck.anyFree = true
	}
}

// siteVisit observes a memory micro-op before its effect is applied.
type siteVisit func(in *isa.Inst, u *isa.Uop, st *cstate)

// transferBlockF interprets one block from st, returning the trailing
// compare fact for edge refinement.
func (ck *checker) transferBlockF(b *ptrflow.Block, st *cstate, visit siteVisit) cmpRec {
	prog := ck.prog
	var cmp cmpRec
	for idx := b.Start; idx < b.End; idx++ {
		in := &prog.Insts[idx]
		uops := ck.dec.Native(in, ck.uopBuf[:0])
		ck.uopBuf = uops
		for i := range uops {
			u := &uops[i]
			if visit != nil && u.Type.IsMem() {
				visit(in, u, st)
			}
			ck.transferUop(st, u, &cmp)
		}
		if in.Op == isa.CALL && in.Dst.Kind != isa.OpReg && prog.At(in.Target) == nil {
			ck.externalCallF(st, in.Target)
		}
	}
	return cmp
}

// refineF narrows numeric ranges along a conditional edge (the checker's
// own mirror of edge-sensitive refinement).
func refineF(st *cstate, cmp cmpRec, cond isa.Cond, taken bool) {
	if !cmp.ok || !cmp.r1.Valid() {
		return
	}
	if !taken {
		cond = negCondF(cond)
		if cond == isa.CondNone {
			return
		}
	}
	lhs := st.reg(cmp.r1)
	rhs := numF(ptrflow.Const(cmp.imm))
	if !cmp.hasImm {
		if !cmp.r2.Valid() {
			return
		}
		rhs = st.reg(cmp.r2)
	}
	apply := func(r isa.Reg, v fact, bound ptrflow.Interval) {
		if !r.Valid() || !numericTag(v.tag) {
			return
		}
		m := v.rng.Meet(bound)
		if m.Empty() {
			return
		}
		v.rng = m
		st.regs[r] = v
	}
	lb, rb := numRngF(lhs), numRngF(rhs)
	unsignedOK := !lb.Empty() && !rb.Empty() && lb.Lo >= 0 && rb.Lo >= 0
	// Saturating ±1 on a single bound, with the sentinel stickiness of the
	// shared interval library.
	bump := func(v, d int64) int64 { return ptrflow.Const(v).AddConst(d).Lo }
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
			apply(cmp.r1, lhs, ptrflow.Interval{Lo: cNegInf, Hi: bump(rb.Hi, -1)})
			if !cmp.hasImm {
				apply(cmp.r2, rhs, ptrflow.Interval{Lo: bump(lb.Lo, 1), Hi: cPosInf})
			}
		case le:
			apply(cmp.r1, lhs, ptrflow.Interval{Lo: cNegInf, Hi: rb.Hi})
			if !cmp.hasImm {
				apply(cmp.r2, rhs, ptrflow.Interval{Lo: lb.Lo, Hi: cPosInf})
			}
		case gt:
			apply(cmp.r1, lhs, ptrflow.Interval{Lo: bump(rb.Lo, 1), Hi: cPosInf})
			if !cmp.hasImm {
				apply(cmp.r2, rhs, ptrflow.Interval{Lo: cNegInf, Hi: bump(lb.Hi, -1)})
			}
		case ge:
			apply(cmp.r1, lhs, ptrflow.Interval{Lo: rb.Lo, Hi: cPosInf})
			if !cmp.hasImm {
				apply(cmp.r2, rhs, ptrflow.Interval{Lo: cNegInf, Hi: lb.Hi})
			}
		}
	case isa.CondS:
		apply(cmp.r1, lhs, ptrflow.Interval{Lo: cNegInf, Hi: -1})
	case isa.CondNS:
		apply(cmp.r1, lhs, ptrflow.Interval{Lo: 0, Hi: cPosInf})
	}
}

func negCondF(c isa.Cond) isa.Cond {
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

// ---------------------------------------------------------------------------
// Induction and proof verification

// verifyInduction checks that the bundle's invariants are inductive:
// every entry state is contained in its entry block's invariant, and
// every invariant block's edge-out states are contained in the successor
// invariants. Along the way the checker accumulates its own allocation
// and release facts and verifies every store against the claimed
// summaries.
func (ck *checker) verifyInduction() error {
	g := ck.cfg
	for _, e := range g.Entries {
		inv, ok := ck.invs[e]
		if !ok {
			return fmt.Errorf("entry block %d has no invariant", e)
		}
		es := newEntryCState()
		if err := stateLE(es, inv); err != nil {
			return fmt.Errorf("entry block %d: %v", e, err)
		}
	}
	for bi := range g.Blocks {
		inv, ok := ck.invs[bi]
		if !ok {
			continue // unreached per the bundle; nothing flows out of it
		}
		b := &g.Blocks[bi]
		ck.st.copyFrom(inv)
		cmp := ck.transferBlockF(b, &ck.st, nil)
		for _, succ := range b.Succs {
			sinv, ok := ck.invs[succ]
			if !ok {
				return fmt.Errorf("block %d flows into block %d which has no invariant", bi, succ)
			}
			if err := stateLE(ck.edgeState(b, cmp, succ), sinv); err != nil {
				return fmt.Errorf("block %d -> %d not inductive: %v", bi, succ, err)
			}
		}
	}
	if err := ck.verifyCtxInduction(); err != nil {
		return err
	}
	if ck.storeErr != nil {
		return ck.storeErr
	}
	return nil
}

// edgeState returns the transferred state ck.st along one successor
// edge: refined by the block's trailing compare into ck.edge on a JCC
// edge whose taken and fall-through targets differ, ck.st itself
// otherwise.
func (ck *checker) edgeState(b *ptrflow.Block, cmp cmpRec, succ int) *cstate {
	if cmp.ok && b.TakenSucc >= 0 && b.TakenSucc != b.FallSucc &&
		(succ == b.TakenSucc || succ == b.FallSucc) {
		ck.edge.copyFrom(&ck.st)
		refineF(&ck.edge, cmp, b.Cond, succ == b.TakenSucc)
		return &ck.edge
	}
	return &ck.st
}

// heapChunkMin returns the checker's own lower bound on heap chunk
// sizes, or 0 when unknown.
func (ck *checker) heapChunkMin() uint64 {
	if ck.heapUnknown || ck.heapMin <= 0 {
		return 0
	}
	return uint64(ck.heapMin)
}

// verifyProof re-derives one proof's site facts from the (already
// verified) invariant of its block and checks the full safety
// condition. A ⊤ ("any") proof starts from the block's ⊤-layer
// invariant; a context-qualified proof starts from the claimed
// (block, context) invariant, which the per-context induction has
// verified over the valid-path call/return edges.
func (ck *checker) verifyProof(p *ptrflow.Proof) error {
	b := ck.cfg.BlockAt(p.Addr)
	if b == nil {
		return fmt.Errorf("site %#x.%d: no containing block", p.Addr, p.MacroIdx)
	}
	var (
		inv *cstate
		ok  bool
	)
	if p.Ctx == "" || p.Ctx == pipeline.CtxAny.String() {
		inv, ok = ck.invs[b.ID]
		if !ok {
			return fmt.Errorf("site %#x.%d: block %d has no invariant", p.Addr, p.MacroIdx, b.ID)
		}
	} else {
		ctx, err := pipeline.ParseCallCtx(p.Ctx)
		if err != nil {
			return fmt.Errorf("site %#x.%d: %v", p.Addr, p.MacroIdx, err)
		}
		inv, ok = ck.ctxInvs[ctxInvKey{block: b.ID, ctx: ctx}]
		if !ok {
			return fmt.Errorf("site %#x.%d: block %d has no invariant for context %s",
				p.Addr, p.MacroIdx, b.ID, p.Ctx)
		}
	}
	var siteErr error
	found := false
	ck.st.copyFrom(inv)
	ck.transferBlockF(b, &ck.st, func(in *isa.Inst, u *isa.Uop, cur *cstate) {
		if found || in.Addr != p.Addr || u.MacroIdx != p.MacroIdx {
			return
		}
		found = true
		siteErr = ck.checkSite(p, u, cur)
	})
	if !found {
		return fmt.Errorf("site %#x.%d: no such memory micro-op", p.Addr, p.MacroIdx)
	}
	return siteErr
}

func (ck *checker) checkSite(p *ptrflow.Proof, u *isa.Uop, st *cstate) error {
	store := u.Type == isa.UStore
	if store != p.Store {
		return fmt.Errorf("access kind mismatch")
	}
	d := derefFact(st, u.Mem)
	if d.tag != ptrflow.FactPtr || d.region == "" || d.region != p.Region {
		return fmt.Errorf("deref tag %q(%s) does not establish ptr(%s)", d.tag, d.region, p.Region)
	}
	region, off, ok := ck.eaBounds(st, u)
	if !ok || region != p.Region {
		return fmt.Errorf("effective address not attributable to %s", p.Region)
	}
	if !off.Bounded() || off.Lo < 0 {
		return fmt.Errorf("offset %s not provably non-negative and finite", off)
	}
	size := u.AccessSize()
	var span uint64
	if region == ptrflow.HeapRegion {
		span = ck.heapChunkMin()
		if span == 0 {
			return fmt.Errorf("no heap chunk-size lower bound")
		}
		if st.free {
			return fmt.Errorf("a heap release may precede the site")
		}
		if ck.harts > 1 && ck.anyFree {
			return fmt.Errorf("concurrent harts with reachable release")
		}
	} else {
		m := ck.regions[region]
		if m == nil || !m.isGlobal || m.size == 0 {
			return fmt.Errorf("region %s has no recoverable extent", region)
		}
		span = m.size
		if store && m.readOnly {
			return fmt.Errorf("store into read-only region %s", region)
		}
	}
	end := off.Hi + int64(size)
	if end < off.Hi || end < 0 || uint64(end) > span {
		return fmt.Errorf("bounds %s+%d exceed region span %d", off, size, span)
	}
	return nil
}
