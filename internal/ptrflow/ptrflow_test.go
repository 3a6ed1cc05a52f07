package ptrflow

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"chex86/internal/asm"
	"chex86/internal/core"
	"chex86/internal/heap"
	"chex86/internal/isa"
	"chex86/internal/tracker"
)

func build(t *testing.T, f func(b *asm.Builder)) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	f(b)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func analyze(t *testing.T, p *asm.Program, opt Options) *Analysis {
	t.Helper()
	a, err := Analyze(p, opt)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return a
}

// siteAt finds the site of the first memory uop at the labeled instruction.
func siteAt(t *testing.T, a *Analysis, p *asm.Program, label string) *Site {
	t.Helper()
	addr := p.MustLookup(label)
	for _, s := range a.SortedSites() {
		if s.Addr == addr {
			return s
		}
	}
	t.Fatalf("no site at %s (%#x)", label, addr)
	return nil
}

// --- CFG -------------------------------------------------------------

func TestCFGFallThroughAtTraceEnd(t *testing.T) {
	// The decoded trace ends without a terminator: the last block must
	// have no successors instead of a phantom fall-through edge.
	p := build(t, func(b *asm.Builder) {
		b.MovRI(isa.RAX, 1)
		b.Label("skip")
		b.MovRI(isa.RBX, 2) // leader via label; trace ends here
	})
	g := BuildCFG(p, 1)
	if len(g.Blocks) == 0 {
		t.Fatal("no blocks")
	}
	last := g.Blocks[len(g.Blocks)-1]
	if len(last.Succs) != 0 {
		t.Fatalf("trace-end block must have no successors, got %v", last.Succs)
	}
}

// TestCFGIndirectJumpHints: the CFG takes no indirect-branch target
// hints, so an indirect jump is reported unresolved and gets no edges.
func TestCFGIndirectJumpHints(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.Lea(isa.RAX, isa.MemOp(isa.RNone, 0)) // stand-in target computation
		b.Label("jump")
		b.JmpReg(isa.RAX)
		b.Label("dead")
		b.Nop()
		b.Label("target")
		b.Hlt()
	})
	jmpAddr := p.MustLookup("jump")
	g := BuildCFG(p, 1)
	if len(g.Unresolved) != 1 || g.Unresolved[0] != jmpAddr {
		t.Fatalf("unresolved = %#v, want [%#x]", g.Unresolved, jmpAddr)
	}
	if jb := g.BlockAt(jmpAddr); len(jb.Succs) != 0 {
		t.Fatalf("unresolved jump at %#x has successors %v", jmpAddr, jb.Succs)
	}
}

func TestCFGCallReturnEdges(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.Call("fn")
		b.Label("after")
		b.Hlt()
		b.Label("fn")
		b.Ret()
	})
	g := BuildCFG(p, 1)
	callB := g.BlockAt(p.TextBase)
	fnB := g.BlockAt(p.MustLookup("fn"))
	afterB := g.BlockAt(p.MustLookup("after"))
	// Dataflow edge: call -> callee entry (not the return site).
	if len(callB.Succs) != 1 || callB.Succs[0] != fnB.ID {
		t.Fatalf("call Succs = %v, want [%d]", callB.Succs, fnB.ID)
	}
	// The RET flows to the call's return site.
	found := false
	for _, s := range fnB.Succs {
		if s == afterB.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("ret must flow to the return site: succs=%v, want %d", fnB.Succs, afterB.ID)
	}
	// Intraprocedural edge: the caller resumes at the return site.
	found = false
	for _, s := range callB.IntraSuccs {
		if s == afterB.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("call IntraSuccs = %v, want %d", callB.IntraSuccs, afterB.ID)
	}
}

// --- Dataflow verdicts -----------------------------------------------

func TestAnalyzeHeapPointerVerdicts(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.MovRI(isa.RDI, 64)
		b.CallAddr(heap.MallocEntry)
		b.MovRI(isa.RDX, 42)
		b.Label("st")
		b.Store(isa.RAX, 0, isa.RDX)
		b.Label("ld")
		b.Load(isa.RCX, isa.RAX, 8)
		b.Hlt()
	})
	a := analyze(t, p, Options{})
	st := siteAt(t, a, p, "st")
	if st.Verdict != VerdictPointer || st.Assumed {
		t.Fatalf("heap store: verdict=%v assumed=%v, want sound pointer", st.Verdict, st.Assumed)
	}
	if st.Deref.Region != HeapRegion {
		t.Fatalf("heap store region = %q", st.Deref.Region)
	}
	ld := siteAt(t, a, p, "ld")
	if ld.Verdict != VerdictPointer || ld.Assumed {
		t.Fatalf("heap load: verdict=%v assumed=%v, want sound pointer", ld.Verdict, ld.Assumed)
	}
}

func TestAnalyzeStackSpillReload(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.MovRI(isa.RDI, 64)
		b.CallAddr(heap.MallocEntry)
		b.Push(isa.RAX)     // spill the pointer
		b.MovRI(isa.RAX, 0) // clobber it (wild, per the MOVI rule)
		b.Pop(isa.RBX)      // reload into another register
		b.Label("deref")
		b.Load(isa.RCX, isa.RBX, 0)
		b.Hlt()
	})
	a := analyze(t, p, Options{})
	s := siteAt(t, a, p, "deref")
	if s.Verdict != VerdictPointer || s.Assumed {
		t.Fatalf("spill/reload deref: verdict=%v assumed=%v deref=%v, want sound pointer",
			s.Verdict, s.Assumed, s.Deref)
	}
	if s.Deref.Region != HeapRegion {
		t.Fatalf("reloaded pointer lost its region: %v", s.Deref)
	}
}

func TestAnalyzeNotPointerVerdicts(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.Global("tab", 0x600000, 32)
		for i := uint64(0); i < 4; i++ {
			b.DataU64(0x600000+8*i, 1)
		}
		b.Global("out", 0x700000, 8)
		b.DataU64(0x700000, 0)
		// The index comes from memory (a sound not-pointer), not MOVI
		// (which would tag it wild). The scaled load's EA is unbounded
		// (no pointer base), so its RESULT is Top — the store therefore
		// targets a separate region, or the Top value would feed back
		// into "tab" and conservatively lift the index itself to Top.
		b.Label("idx")
		b.Mov(isa.RegOp(isa.R9), isa.MemOp(isa.RNone, 0x600000))
		b.Label("ld")
		b.LoadIdx(isa.R8, isa.RNone, isa.R9, 8, 0x600000)
		b.Label("st")
		b.Mov(isa.MemOp(isa.RNone, 0x700000), isa.RegOp(isa.R8))
		b.Hlt()
	})
	a := analyze(t, p, Options{})
	for _, label := range []string{"idx", "ld", "st"} {
		s := siteAt(t, a, p, label)
		if s.Verdict != VerdictNotPointer || s.Assumed {
			t.Errorf("%s: verdict=%v assumed=%v, want sound not-pointer", label, s.Verdict, s.Assumed)
		}
	}
}

func TestAnalyzeWildImmediateIsPointer(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.MovRI(isa.RBX, 0x7fff_1000) // MOVI rule: wild tag
		b.Label("deref")
		b.Load(isa.RAX, isa.RBX, 0)
		b.Hlt()
	})
	a := analyze(t, p, Options{})
	s := siteAt(t, a, p, "deref")
	if s.Verdict != VerdictPointer {
		t.Fatalf("wild deref: verdict=%v, want pointer (wild is tagged)", s.Verdict)
	}
	if s.Deref.Tag != TagWild {
		t.Fatalf("wild deref tag=%v", s.Deref.Tag)
	}
}

func TestAnalyzeUnknownEAStoreDemotesToAssumed(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.Global("slot", 0x600000, 8) // uninitialized
		b.MovRI(isa.RDI, 64)
		b.CallAddr(heap.MallocEntry)
		b.Label("sound")
		b.Store(isa.RAX, 0, isa.RDI) // would be a sound pointer site...
		b.Mov(isa.RegOp(isa.RBX), isa.MemOp(isa.RNone, 0x600000))
		b.Store(isa.RBX, 0, isa.RDI) // ...but this store's EA is unknown
		b.Hlt()
	})
	a := analyze(t, p, Options{})
	if a.Stats.UnknownEAStores == 0 {
		t.Fatal("store through an unproven base must count as unknown-EA")
	}
	s := siteAt(t, a, p, "sound")
	if s.Verdict != VerdictPointer || !s.Assumed {
		t.Fatalf("after an unknown-EA store every verdict demotes to assumed: verdict=%v assumed=%v",
			s.Verdict, s.Assumed)
	}
}

func TestAnalyzeRelocGlobalIsSoundPointer(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.Global("buf", 0x601000, 64)
		for i := uint64(0); i < 8; i++ {
			b.DataU64(0x601000+8*i, 0)
		}
		b.Global("bufp", 0x600000, 8)
		b.Reloc(0x600000, "buf") // bufp holds &buf, seeded by the loader
		b.Mov(isa.RegOp(isa.RBX), isa.MemOp(isa.RNone, 0x600000))
		b.Label("deref")
		b.Load(isa.RAX, isa.RBX, 0)
		b.Hlt()
	})
	a := analyze(t, p, Options{})
	s := siteAt(t, a, p, "deref")
	if s.Verdict != VerdictPointer || s.Assumed {
		t.Fatalf("reloc-slot deref: verdict=%v assumed=%v deref=%v, want sound pointer",
			s.Verdict, s.Assumed, s.Deref)
	}
	if s.Deref.Region != "buf" {
		t.Fatalf("reloc deref region=%q, want buf", s.Deref.Region)
	}
}

// --- Loop widening and proof soundness --------------------------------

// proofAt returns the bundle's proof for the labeled instruction's first
// memory uop, or nil.
func proofAt(b *Bundle, p *asm.Program, label string) *Proof {
	addr := p.MustLookup(label)
	for i := range b.Proofs {
		if b.Proofs[i].Addr == addr {
			return &b.Proofs[i]
		}
	}
	return nil
}

// TestProofMonotoneInductionLoop pins widening + narrowing on the
// canonical monotone induction loop: `for i = 0; i < 4; i++ { tab[i] }`.
// The counter's interval climbs each iteration, widening lifts it to
// [0, +inf) so the fixpoint terminates, and the loop-guard refinement
// narrows it back to [0, 3] on the back edge — tight enough to prove
// every access lands inside the 32-byte table, so the site carries a
// safety proof with exact bounds.
func TestProofMonotoneInductionLoop(t *testing.T) {
	p := build(t, inductionLoop(4))
	a := analyze(t, p, Options{})
	pr := proofAt(a.ProofBundle(), p, "loop")
	if pr == nil {
		t.Fatalf("induction loop access has no safety proof; proofs: %+v", a.ProofBundle().Proofs)
	}
	if pr.Region != "tab" || pr.Lo != 0 || pr.Hi != 24 || pr.Size != 8 {
		t.Fatalf("proof bounds %s+[%d,%d] width %d, want tab+[0,24] width 8",
			pr.Region, pr.Lo, pr.Hi, pr.Size)
	}
}

// inductionLoop builds `for i = 0; i < trip; i++ { tab[i] }` over a
// 32-byte table: a relocation-seeded pointer base (sound ptr), an index
// loaded from a zeroed global (sound not-ptr [0,0]), and the loop guard
// as the only bound on the index.
func inductionLoop(trip int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.Global("tab", 0x601000, 32)
		for i := uint64(0); i < 4; i++ {
			b.DataU64(0x601000+8*i, 1)
		}
		b.Global("tabp", 0x600000, 8)
		b.Reloc(0x600000, "tab")
		b.Global("zero", 0x600008, 8)
		b.DataU64(0x600008, 0)
		b.Mov(isa.RegOp(isa.RBX), isa.MemOp(isa.RNone, 0x600000)) // RBX = &tab
		b.Mov(isa.RegOp(isa.R9), isa.MemOp(isa.RNone, 0x600008))  // R9 = 0
		b.Label("loop")
		b.LoadIdx(isa.R8, isa.RBX, isa.R9, 8, 0)
		b.AddRI(isa.R9, 1)
		b.CmpRI(isa.R9, trip)
		b.Jcc(isa.CondL, "loop")
		b.Hlt()
	}
}

// TestProofRejectsOOBTripCount is the regression test for the elision
// soundness hazard: the same induction loop as above, but a trip count
// whose last iterations run past the region's end, must never yield a
// proven-safe site — even though the counter's narrowed interval is
// bounded. Eight iterations at stride 8 touch [0, 63] of the 32-byte
// table.
func TestProofRejectsOOBTripCount(t *testing.T) {
	p := build(t, inductionLoop(8))
	a := analyze(t, p, Options{})
	s := siteAt(t, a, p, "loop")
	if s.Verdict != VerdictPointer {
		t.Fatalf("loop access verdict=%v, want pointer (only the bounds differ from the safe loop)", s.Verdict)
	}
	if pr := proofAt(a.ProofBundle(), p, "loop"); pr != nil {
		t.Fatalf("OOB trip-count loop got a safety proof %s+[%d,%d] width %d",
			pr.Region, pr.Lo, pr.Hi, pr.Size)
	}
}

// TestProofRejectsRetaggedLoopPointer pins the other widening hazard: a
// pointer re-derived (advanced) inside the loop body. Its region-
// relative offset climbs without a guard on the offset itself, so
// widening lifts it to [0, +inf) and the walking dereference must stay
// unproven — the trip count (16 × stride 8 across a 64-byte chunk) runs
// out of bounds.
func TestProofRejectsRetaggedLoopPointer(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.MovRI(isa.RDI, 64)
		b.CallAddr(heap.MallocEntry)
		b.MovRR(isa.RBX, isa.RAX)
		b.MovRI(isa.RCX, 16)
		b.Label("walk")
		b.Store(isa.RBX, 0, isa.RCX)
		b.AddRI(isa.RBX, 8) // re-tagged: pointer advances every iteration
		b.SubRI(isa.RCX, 1)
		b.CmpRI(isa.RCX, 0)
		b.Jcc(isa.CondNE, "walk")
		b.Hlt()
	})
	a := analyze(t, p, Options{})
	s := siteAt(t, a, p, "walk")
	if s.Verdict != VerdictPointer {
		t.Fatalf("walking store verdict=%v, want pointer (tag is known, bounds are not)", s.Verdict)
	}
	if pr := proofAt(a.ProofBundle(), p, "walk"); pr != nil {
		t.Fatalf("walking heap store got a safety proof %s+[%d,%d] width %d — widened offset must stay unproven",
			pr.Region, pr.Lo, pr.Hi, pr.Size)
	}
}

// --- Abstract propagation soundness ----------------------------------

// TestAbsPropagateSoundness checks, for every register rule in the
// database, that abstract propagation over-approximates the concrete
// closure: for all abstract operand pairs and all concrete PIDs they
// concretize to, the concrete result classifies within the abstract
// result's tag.
func TestAbsPropagateSoundness(t *testing.T) {
	conc := map[Tag][]core.PID{
		TagNotPtr: {0},
		TagPtr:    {5, 7},
		TagWild:   {core.WildPID},
		TagTop:    {0, 5, 7, core.WildPID},
	}
	absIn := []Value{notPtr, {Tag: TagPtr, Region: HeapRegion}, {Tag: TagWild}, top}
	rules := tracker.NewRuleDB().Rules()
	for i := range rules {
		r := &rules[i]
		if r.Propagate == nil {
			continue
		}
		for _, v1 := range absIn {
			for _, v2 := range absIn {
				got := absPropagate(r, v1, v2)
				for _, c1 := range conc[v1.Tag] {
					for _, c2 := range conc[v2.Tag] {
						ct := classifyPID(r.Propagate(c1, c2))
						if joinTag(got.Tag, ct) != got.Tag {
							t.Errorf("%s %s: abs(%v,%v)=%v does not cover concrete (%d,%d)->%v",
								r.Name, r.Mode, v1, v2, got, c1, c2, ct)
						}
					}
				}
			}
		}
	}
}

// TestJoinIdempotentOnCanonical backs joinValue's skip of equal values:
// join(v, v) and widenValue(v, v) return v for every canonical v. The
// cases cover each tag, region presence and interval shape join tells
// apart. A non-canonical value, such as a region-less ptr with a bounded
// offset, does move under join, which is why the skip asks canonical
// first.
func TestJoinIdempotentOnCanonical(t *testing.T) {
	ivs := []Interval{ivEmpty, {Lo: 5, Hi: 2}, ivFull, ivConst(0), {Lo: -5, Hi: 7},
		{Lo: negInf, Hi: 3}, {Lo: 3, Hi: posInf}}
	canonical, moved := 0, 0
	for tag := TagBot; tag <= TagTop; tag++ {
		for _, region := range []string{"", "g", HeapRegion} {
			for _, assumed := range []bool{false, true} {
				for _, rng := range ivs {
					v := Value{Tag: tag, Region: region, Assumed: assumed, Rng: rng}
					if !v.canonical() {
						if !join(v, v).eq(v) {
							moved++
						}
						continue
					}
					canonical++
					if j := join(v, v); !j.eq(v) {
						t.Errorf("join(%+v, itself) = %+v", v, j)
					}
					if w := widenValue(v, v); !w.eq(v) {
						t.Errorf("widenValue(%+v, itself) = %+v", v, w)
					}
				}
			}
		}
	}
	if canonical == 0 || moved == 0 {
		t.Fatalf("%d canonical cases, %d non-canonical cases moved by join; want both", canonical, moved)
	}
}

// --- Cross-check ------------------------------------------------------

func TestCrosscheckCleanProgram(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.MovRI(isa.RDI, 64)
		b.CallAddr(heap.MallocEntry)
		b.MovRR(isa.RBX, isa.RAX)
		b.MovRI(isa.RCX, 8)
		b.Label("loop")
		b.MovRI(isa.RDX, 42)
		b.Store(isa.RBX, 0, isa.RDX)
		b.Load(isa.RDX, isa.RBX, 0)
		b.AddRI(isa.RBX, 8)
		b.SubRI(isa.RCX, 1)
		b.CmpRI(isa.RCX, 0)
		b.Jcc(isa.CondNE, "loop")
		b.MovRR(isa.RDI, isa.RAX)
		b.CallAddr(heap.FreeEntry)
		b.Hlt()
	})
	rep, err := Crosscheck(context.Background(), p, CheckOptions{MaxCycles: 1_000_000})
	if err != nil {
		t.Fatalf("crosscheck: %v", err)
	}
	if rep.FalseNegatives != 0 {
		t.Fatalf("clean program reported %d false negatives: classes %+v", rep.FalseNegatives, rep.Classes)
	}
	if rep.OverTaggedSites != 0 {
		t.Fatalf("clean program reported %d over-tagged sites", rep.OverTaggedSites)
	}
	if rep.Coverage != 1.0 {
		t.Fatalf("coverage=%v (%d/%d tagged execs), want 1.0", rep.Coverage, rep.PointerTagged, rep.PointerExecs)
	}
	if rep.PointerExecs == 0 {
		t.Fatal("the loop derefs a heap pointer; pointer-site execs must be non-zero")
	}
	if rep.Classes.Uncharted != 0 {
		t.Fatalf("%d uncharted sites in a fully resolved program", rep.Classes.Uncharted)
	}
}

func TestClassifyCountsMixedSiteOnce(t *testing.T) {
	// A pointer-verdict site whose tag stream mixes wild tags (a check
	// runs, but against no real capability — over-tagging) with untagged
	// executions (no check at all — uncovered) must land in exactly one
	// classification bucket and be debited from the coverage metric
	// exactly once.
	s := &Site{Verdict: VerdictPointer}
	r := &siteRun{execs: 10, tagged: 4, wild: 3}
	class, _ := classify(s, r)
	if class != ClassFalseNegative {
		t.Fatalf("mixed wild/untagged pointer site classified %q, want %q", class, ClassFalseNegative)
	}

	rep := &Report{}
	sr := &SiteReport{Verdict: VerdictPointer.String(), Execs: r.execs,
		Tagged: r.tagged, Wild: r.wild, Class: class}
	countClass(rep, sr)
	deriveTotals(rep)
	if rep.FalseNegatives != 1 || rep.OverTaggedSites != 0 {
		t.Fatalf("site counted fn=%d over-tagged=%d, want exactly one false negative",
			rep.FalseNegatives, rep.OverTaggedSites)
	}
	// Coverage credit: only the 1 properly attributed tag out of 10.
	if rep.PointerExecs != 10 || rep.PointerTagged != 1 {
		t.Fatalf("coverage accumulators execs=%d tagged=%d, want 10/1",
			rep.PointerExecs, rep.PointerTagged)
	}

	// A fully wild-tagged pointer site is not coverage either: the
	// pre-fix classifier called this covered because tagged == execs.
	allWild := &siteRun{execs: 5, tagged: 5, wild: 5}
	if class, _ := classify(s, allWild); class != ClassFalseNegative {
		t.Fatalf("fully wild-tagged pointer site classified %q, want %q", class, ClassFalseNegative)
	}

	// Headline counters are derived from the histogram, never
	// incremented independently: they must agree by construction.
	rep2 := &Report{}
	for _, c := range []string{ClassFalseNegative, ClassFalseNegativeAssumed,
		ClassOverTagged, ClassOverTagged, ClassCovered} {
		countClass(rep2, &SiteReport{Class: c})
	}
	deriveTotals(rep2)
	if rep2.FalseNegatives != rep2.Classes.FalseNegative ||
		rep2.TriagedFalseNegatives != rep2.Classes.FalseNegativeAssumed ||
		rep2.OverTaggedSites != rep2.Classes.OverTagged {
		t.Fatalf("headline counters diverge from class histogram: %+v", rep2)
	}
}

func TestReportJSONStable(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.MovRI(isa.RDI, 32)
		b.CallAddr(heap.MallocEntry)
		b.Store(isa.RAX, 0, isa.RDI)
		b.Hlt()
	})
	run := func() []byte {
		rep, err := Crosscheck(context.Background(), p, CheckOptions{MaxCycles: 1_000_000})
		if err != nil {
			t.Fatalf("crosscheck: %v", err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ across identical runs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}
