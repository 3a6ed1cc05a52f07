package elide

import (
	"testing"

	"chex86/internal/asm"
	"chex86/internal/isa"
	"chex86/internal/pipeline"
	"chex86/internal/ptrflow"
)

// twoCallerProgram: a helper called from two sites whose callers hold
// pointers to different regions in R9. Context-insensitive return
// merging loses both regions at the return sites; valid-path matching
// recovers them, so the two caller-side dereferences are provable only
// with per-context proofs.
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

	b.Mov(isa.RegOp(isa.R9), isa.MemOp(isa.RNone, 0x600000))
	b.Call("helper")
	b.Label("deref1")
	b.Load(isa.RAX, isa.R9, 0)
	b.Mov(isa.RegOp(isa.R9), isa.MemOp(isa.RNone, 0x600008))
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

func TestContextElisionEndToEnd(t *testing.T) {
	p := buildProg(t, twoCallerProgram)

	insens, err := ForProgram(p, Options{ContextK: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := ForProgram(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !insens.Verified || !ctx.Verified {
		t.Fatalf("bundle rejected: insens=%q ctx=%q", insens.Reason, ctx.Reason)
	}
	if ctx.Stats.Elided <= insens.Stats.Elided {
		t.Fatalf("context-sensitive proofs (%d) must exceed insensitive (%d) on the two-caller shape",
			ctx.Stats.Elided, insens.Stats.Elided)
	}
	for _, label := range []string{"deref1", "deref2"} {
		addr := p.MustLookup(label)
		key := pipeline.ElideKey{Addr: addr, MacroIdx: 0, Ctx: pipeline.CtxRoot}
		if !ctx.Map[key] {
			t.Errorf("%s: elision map missing context-qualified entry %v", label, key)
		}
		if insens.Map[pipeline.ElideKey{Addr: addr, MacroIdx: 0, Ctx: pipeline.CtxAny}] {
			t.Errorf("%s: insensitive map elides the merged-return site — the merge was supposed to lose it", label)
		}
	}
	// The map digest is part of the campaign cache key: the two
	// configurations must not collide.
	if ctx.Digest == insens.Digest {
		t.Fatal("context-sensitive and insensitive reports share a digest")
	}
}

// ctxBundle analyzes the two-caller program at k=2 and returns its
// bundle, which carries per-context invariants and proofs.
func ctxBundle(t *testing.T) (*asm.Program, *ptrflow.Bundle) {
	t.Helper()
	p := buildProg(t, twoCallerProgram)
	an, err := ptrflow.Analyze(p, ptrflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := an.ProofBundle()
	hasCtx := false
	for i := range b.Invariants {
		if b.Invariants[i].Ctx != "any" {
			hasCtx = true
		}
	}
	if !hasCtx {
		t.Fatal("bundle carries no per-context invariants")
	}
	return p, b
}

func TestCtxInvariantBadSiteRejected(t *testing.T) {
	p, b := ctxBundle(t)
	for i := range b.Invariants {
		if b.Invariants[i].Ctx != "any" && b.Invariants[i].Ctx != "root" {
			// Structurally valid context string, but the site is not an
			// internal CALL instruction.
			b.Invariants[i].Ctx = "0x2"
			break
		}
	}
	if _, err := newChecker(p, b, 1); err == nil {
		t.Fatal("call-string site that is not an internal CALL was accepted")
	}
}

func TestCtxInvariantDuplicateRejected(t *testing.T) {
	p, b := ctxBundle(t)
	for i := range b.Invariants {
		if b.Invariants[i].Ctx != "any" {
			b.Invariants = append(b.Invariants, b.Invariants[i])
			break
		}
	}
	if _, err := newChecker(p, b, 1); err == nil {
		t.Fatal("duplicate (block, context) claim was accepted")
	}
}

func TestCtxKOutOfRangeRejected(t *testing.T) {
	p, b := ctxBundle(t)
	b.CtxK = 3
	if _, err := newChecker(p, b, 1); err == nil {
		t.Fatal("per-context claims at unsupported k were accepted")
	}
}

// TestTamperedCtxInvariantRejectsBundle flips the context-qualified R9
// claims to not-pointer: the tampered claims contradict the ⊤ layer
// (context-join subsumption) and are not inductive over the valid-path
// edges, so the bundle must be rejected.
func TestTamperedCtxInvariantRejectsBundle(t *testing.T) {
	p, b := ctxBundle(t)
	tampered := 0
	for i := range b.Invariants {
		if b.Invariants[i].Ctx == "any" {
			continue
		}
		f := &b.Invariants[i].Regs[isa.R9]
		if f.Tag == ptrflow.FactPtr {
			*f = ptrflow.Fact{Tag: ptrflow.FactNotPtr, Rng: ptrflow.Const(0)}
			tampered++
		}
	}
	if tampered == 0 {
		t.Fatal("no context-qualified pointer claim to tamper")
	}
	ck, err := newChecker(p, b, 1)
	if err != nil {
		t.Fatalf("precondition reject (want induction reject): %v", err)
	}
	if err := ck.verifyInduction(); err == nil {
		t.Fatal("tampered per-context invariant passed the induction check")
	}
}

// TestForgedCtxProofRejected forges a proof claiming a (site, context)
// pair the invariants never claimed: the helper's stack push is only
// reachable under the two call-site contexts, so a root-context proof
// for it has no invariant to stand on.
func TestForgedCtxProofRejected(t *testing.T) {
	p, b := ctxBundle(t)
	ck, err := newChecker(p, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.verifyInduction(); err != nil {
		t.Fatalf("honest bundle must be inductive: %v", err)
	}
	forged := &ptrflow.Proof{
		Addr: p.MustLookup("helper"), MacroIdx: 0, Ctx: "root",
		Region: "g1", Lo: 0, Hi: 0, Size: 8,
	}
	if err := ck.verifyProof(forged); err == nil {
		t.Fatal("proof for an unclaimed (site, context) pair verified")
	}
}
