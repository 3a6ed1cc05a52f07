package ptrflow

import (
	"bytes"
	"encoding/json"
	"testing"

	"chex86/internal/asm"
	"chex86/internal/isa"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// twoCallerProgram is the minimal shape the context-sensitive pass was
// built for: a shared helper called from two sites whose callers hold
// pointers to different regions in the same register. The merged-Succs
// return edges smear the two callers' R9 together at both return sites,
// so the context-insensitive layer cannot attribute either dereference
// to a single region; valid-path return matching recovers both.
func twoCallerProgram(b *asm.Builder) {
	b.Global("g1", 0x601000, 64)
	b.Global("g2", 0x601100, 64)
	for i := uint64(0); i < 8; i++ {
		b.DataU64(0x601000+8*i, 1)
		b.DataU64(0x601100+8*i, 1)
	}
	b.Global("p1", 0x600000, 8)
	b.Reloc(0x600000, "g1")
	b.Global("p2", 0x600008, 8)
	b.Reloc(0x600008, "g2")

	b.Mov(isa.RegOp(isa.R9), isa.MemOp(isa.RNone, 0x600000)) // R9 = &g1
	b.Call("helper")
	b.Label("deref1")
	b.Load(isa.RAX, isa.R9, 0)
	b.Mov(isa.RegOp(isa.R9), isa.MemOp(isa.RNone, 0x600008)) // R9 = &g2
	b.Call("helper")
	b.Label("deref2")
	b.Load(isa.RAX, isa.R9, 8)
	b.Hlt()

	b.Label("helper")
	b.Push(isa.RBX)
	b.AddRI(isa.RBX, 1)
	b.Pop(isa.RBX)
	b.Ret()
}

func TestContextProofRecoversCallerRegion(t *testing.T) {
	p := build(t, twoCallerProgram)

	// Insensitive layer: the smeared return state blocks both proofs.
	ins := analyze(t, p, Options{ContextK: -1})
	if pr := proofAt(ins.ProofBundle(), p, "deref1"); pr != nil {
		t.Fatalf("context-insensitive analysis proved deref1 (%s+[%d,%d]) — "+
			"the two-caller merge should have lost the region", pr.Region, pr.Lo, pr.Hi)
	}

	a := analyze(t, p, Options{ContextK: 2})
	bundle := a.ProofBundle()
	pr1 := proofAt(bundle, p, "deref1")
	if pr1 == nil {
		t.Fatalf("context-sensitive analysis has no proof at deref1; proofs: %+v", bundle.Proofs)
	}
	if pr1.Region != "g1" || pr1.Ctx != "root" {
		t.Fatalf("deref1 proof region=%q ctx=%q, want g1 in root context", pr1.Region, pr1.Ctx)
	}
	pr2 := proofAt(bundle, p, "deref2")
	if pr2 == nil || pr2.Region != "g2" {
		t.Fatalf("deref2 proof = %+v, want region g2", pr2)
	}
}

// TestProofBundleGoldenBytes pins the bundle serialization's
// determinism: re-analyzing the same program must marshal to the same
// bytes (sorted sites, sorted contexts — any map-iteration ordering
// leak surfaces as a diff here), and the ⊤ ("any") layer must precede
// the per-context layer in both invariants and proofs.
func TestProofBundleGoldenBytes(t *testing.T) {
	var golden []byte
	for i := 0; i < 5; i++ {
		p := build(t, twoCallerProgram)
		a := analyze(t, p, Options{ContextK: 2})
		data, err := json.MarshalIndent(a.ProofBundle(), "", " ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if golden == nil {
			golden = data
			continue
		}
		if !bytes.Equal(golden, data) {
			t.Fatalf("bundle serialization not byte-stable across re-analysis (run %d)", i)
		}
	}

	p := build(t, twoCallerProgram)
	bundle := analyze(t, p, Options{ContextK: 2}).ProofBundle()
	seenCtxInv := false
	for _, inv := range bundle.Invariants {
		if inv.Ctx == "any" {
			if seenCtxInv {
				t.Fatal("⊤ invariant after a per-context invariant: layer ordering broken")
			}
		} else {
			seenCtxInv = true
		}
	}
	if !seenCtxInv {
		t.Fatal("bundle has no per-context invariants — context pass did not run")
	}
	seenCtxProof := false
	for i := range bundle.Proofs {
		if bundle.Proofs[i].Ctx == "" || bundle.Proofs[i].Ctx == "any" {
			if seenCtxProof {
				t.Fatal("⊤ proof after a per-context proof: layer ordering broken")
			}
		} else {
			seenCtxProof = true
		}
	}
	if !seenCtxProof {
		t.Fatal("bundle has no per-context proofs")
	}
}

// TestContextDirectRecursion: a self-call's push is collapsed (pushing
// a site already on top of the string is the identity), so direct
// recursion reaches a finite context set and the fixpoint terminates.
func TestContextDirectRecursion(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.Global("tabp", 0x600000, 8)
		b.Reloc(0x600000, "tab")
		b.Global("tab", 0x601000, 32)
		for i := uint64(0); i < 4; i++ {
			b.DataU64(0x601000+8*i, 1)
		}
		b.MovRI(isa.RCX, 3)
		b.Call("rec")
		b.Hlt()
		b.Label("rec")
		b.Mov(isa.RegOp(isa.RBX), isa.MemOp(isa.RNone, 0x600000))
		b.Label("deref")
		b.Load(isa.RAX, isa.RBX, 0)
		b.SubRI(isa.RCX, 1)
		b.CmpRI(isa.RCX, 0)
		b.Jcc(isa.CondE, "done")
		b.Call("rec") // direct recursion: the push collapses
		b.Label("done")
		b.Ret()
	})
	a := analyze(t, p, Options{ContextK: 2})
	s := siteAt(t, a, p, "deref")
	ctxs := s.SortedCtxs()
	if len(ctxs) == 0 {
		t.Fatal("recursive site has no per-context records")
	}
	// Outer call + self call: at most two distinct strings survive the
	// collapse ([outer] and [outer, self]); an unbounded set would mean
	// the collapse failed (and the fixpoint would have diverged first).
	if len(ctxs) > 2 {
		t.Fatalf("direct recursion produced %d contexts, want <= 2", len(ctxs))
	}
	for _, sc := range ctxs {
		if sc.Verdict != VerdictPointer {
			t.Fatalf("ctx %s verdict=%v, want pointer", sc.Ctx, sc.Verdict)
		}
	}
}

// TestContextMutualRecursion: f and g calling each other cycle the
// k-limited string through a finite set of site pairs; the pass must
// terminate and still classify the site in every discovered context.
func TestContextMutualRecursion(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.Global("tabp", 0x600000, 8)
		b.Reloc(0x600000, "tab")
		b.Global("tab", 0x601000, 32)
		for i := uint64(0); i < 4; i++ {
			b.DataU64(0x601000+8*i, 1)
		}
		b.MovRI(isa.RCX, 6)
		b.Call("f")
		b.Hlt()
		b.Label("f")
		b.Mov(isa.RegOp(isa.RBX), isa.MemOp(isa.RNone, 0x600000))
		b.Label("deref")
		b.Load(isa.RAX, isa.RBX, 0)
		b.SubRI(isa.RCX, 1)
		b.CmpRI(isa.RCX, 0)
		b.Jcc(isa.CondE, "fdone")
		b.Call("g")
		b.Label("fdone")
		b.Ret()
		b.Label("g")
		b.CmpRI(isa.RCX, 0)
		b.Jcc(isa.CondE, "gdone")
		b.Call("f")
		b.Label("gdone")
		b.Ret()
	})
	a := analyze(t, p, Options{ContextK: 2})
	s := siteAt(t, a, p, "deref")
	ctxs := s.SortedCtxs()
	if len(ctxs) == 0 {
		t.Fatal("mutually recursive site has no per-context records")
	}
	for _, sc := range ctxs {
		if sc.Ctx.Depth() > 2 {
			t.Fatalf("context %s exceeds k=2", sc.Ctx)
		}
		if sc.Verdict != VerdictPointer {
			t.Fatalf("ctx %s verdict=%v, want pointer", sc.Ctx, sc.Verdict)
		}
	}
}

// TestContextKLimitTruncation: a three-deep call chain keeps only the
// two most recent sites in the innermost function's context.
func TestContextKLimitTruncation(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.Global("tabp", 0x600000, 8)
		b.Reloc(0x600000, "tab")
		b.Global("tab", 0x601000, 32)
		for i := uint64(0); i < 4; i++ {
			b.DataU64(0x601000+8*i, 1)
		}
		b.Label("call_a")
		b.Call("a")
		b.Hlt()
		b.Label("a")
		b.Label("call_b")
		b.Call("b")
		b.Ret()
		b.Label("b")
		b.Label("call_c")
		b.Call("c")
		b.Ret()
		b.Label("c")
		b.Mov(isa.RegOp(isa.RBX), isa.MemOp(isa.RNone, 0x600000))
		b.Label("deref")
		b.Load(isa.RAX, isa.RBX, 0)
		b.Ret()
	})
	a := analyze(t, p, Options{ContextK: 2})
	s := siteAt(t, a, p, "deref")
	ctxs := s.SortedCtxs()
	if len(ctxs) != 1 {
		t.Fatalf("innermost site has %d contexts, want exactly 1", len(ctxs))
	}
	want := pipeline.CallCtx{S0: p.MustLookup("call_b"), S1: p.MustLookup("call_c")}
	if ctxs[0].Ctx != want {
		t.Fatalf("innermost context = %s, want %s (the two most recent call sites, "+
			"call_a truncated by the k-limit)", ctxs[0].Ctx, want)
	}
}

// TestContextUnresolvedIndirectCallFallback: a register-target CALL with
// no hint set resolves to no callees; the CFG summarizes the callee in
// the transfer function and continues at the return site, and the
// context pass must follow that same summarized edge (same context, no
// push) rather than dropping the path.
func TestContextUnresolvedIndirectCallFallback(t *testing.T) {
	p := build(t, func(b *asm.Builder) {
		b.Global("tabp", 0x600000, 8)
		b.Reloc(0x600000, "tab")
		b.Global("tab", 0x601000, 32)
		for i := uint64(0); i < 4; i++ {
			b.DataU64(0x601000+8*i, 1)
		}
		b.MovRI(isa.RAX, 0x400100)
		b.CallReg(isa.RAX) // unresolved: no hint set supplied
		b.Label("after")
		b.Mov(isa.RegOp(isa.RBX), isa.MemOp(isa.RNone, 0x600000))
		b.Label("deref")
		b.Load(isa.RCX, isa.RBX, 0)
		b.Hlt()
	})
	a := analyze(t, p, Options{ContextK: 2})
	if len(a.CFG.Unresolved) != 1 {
		t.Fatalf("unresolved = %v, want exactly the indirect call", a.CFG.Unresolved)
	}
	s := siteAt(t, a, p, "deref")
	ctxs := s.SortedCtxs()
	if len(ctxs) != 1 || !ctxs[0].Ctx.IsRoot() {
		t.Fatalf("post-call site contexts = %v, want exactly [root] via the summarized edge", ctxs)
	}
	// The summarized callee havocs state, so the verdict itself may be
	// unknown — but the context record must agree with the ⊤ layer,
	// which followed the identical summarized edge.
	if ctxs[0].Verdict != s.Verdict {
		t.Fatalf("summarized-path ctx verdict=%v, ⊤ verdict=%v — the passes diverged",
			ctxs[0].Verdict, s.Verdict)
	}
	// An unresolved branch forfeits elision: the bundle must carry no
	// proofs even though the verdict machinery still runs.
	if b := a.ProofBundle(); len(b.Proofs) != 0 {
		t.Fatalf("bundle carries %d proofs despite an unresolved indirect branch", len(b.Proofs))
	}
}

// TestContextVerdictsNeverWeaker sweeps the workload catalog and checks
// the acceptance invariant: a per-context verdict may only refine the
// context-insensitive one, never contradict or weaken it. Per-context
// states join strict subsets of the paths the ⊤ state joins, so a
// definite ⊤ verdict must survive in every context.
func TestContextVerdictsNeverWeaker(t *testing.T) {
	for _, prof := range workload.Catalog() {
		prog, err := prof.Build(0.1)
		if err != nil {
			t.Fatalf("%s: build: %v", prof.Name, err)
		}
		harts := prof.Threads
		if harts <= 0 {
			harts = 1
		}
		a := analyze(t, prog, Options{Harts: harts, ContextK: 2})
		for _, s := range a.SortedSites() {
			for _, sc := range s.SortedCtxs() {
				if s.Verdict != VerdictUnknown && sc.Verdict != s.Verdict {
					t.Errorf("%s %#x.%d ctx %s: verdict %v weaker than insensitive %v",
						prof.Name, s.Addr, s.MacroIdx, sc.Ctx, sc.Verdict, s.Verdict)
				}
				if !s.Assumed && sc.Assumed {
					t.Errorf("%s %#x.%d ctx %s: assumed under context but not insensitively",
						prof.Name, s.Addr, s.MacroIdx, sc.Ctx)
				}
			}
		}
	}
}
