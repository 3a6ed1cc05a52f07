package elide

import (
	"strings"
	"testing"

	"chex86/internal/asm"
	"chex86/internal/heap"
	"chex86/internal/isa"
	"chex86/internal/pipeline"
	"chex86/internal/ptrflow"
)

func buildProg(t *testing.T, f func(b *asm.Builder)) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	f(b)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

// inductionLoop builds `for i = 0; i < trip; i++ { tab[i] }` over a
// 32-byte table behind a relocation-seeded pointer, with the loop guard
// as the only bound on the index. trip=4 stays in bounds; trip=8 walks
// 32 bytes past the end on its last four iterations.
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
		b.Mov(isa.RegOp(isa.RBX), isa.MemOp(isa.RNone, 0x600000))
		b.Mov(isa.RegOp(isa.R9), isa.MemOp(isa.RNone, 0x600008))
		b.Label("loop")
		b.LoadIdx(isa.R8, isa.RBX, isa.R9, 8, 0)
		b.AddRI(isa.R9, 1)
		b.CmpRI(isa.R9, trip)
		b.Jcc(isa.CondL, "loop")
		b.Hlt()
	}
}

func TestElideInductionLoop(t *testing.T) {
	p := buildProg(t, inductionLoop(4))
	rep, err := ForProgram(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("bundle rejected: %s", rep.Reason)
	}
	if rep.Stats.Elided == 0 || rep.Stats.Rejected != 0 {
		t.Fatalf("stats %+v, want verified elisions and no rejections", rep.Stats)
	}
	addr := p.MustLookup("loop")
	var d *SiteDecision
	for i := range rep.Decisions {
		if rep.Decisions[i].Addr == addr {
			d = &rep.Decisions[i]
		}
	}
	if d == nil || d.Status != "elide" {
		t.Fatalf("loop site not elided: %+v", d)
	}
	if d.Region != "tab" || d.Lo != 0 || d.Hi != 24 || d.Size != 8 {
		t.Fatalf("decision bounds %s+[%d,%d] width %d, want tab+[0,24] width 8",
			d.Region, d.Lo, d.Hi, d.Size)
	}
	if !rep.Map[pipeline.ElideKey{Addr: addr, MacroIdx: d.MacroIdx, Ctx: pipeline.CtxAny}] {
		t.Fatal("elision map is missing the proven site")
	}

	// The digest is a content address: identical inputs, identical digest.
	rep2, err := ForProgram(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Digest == "" || rep.Digest != rep2.Digest {
		t.Fatalf("digest not stable: %q vs %q", rep.Digest, rep2.Digest)
	}
}

// TestTamperedInvariantRejectsBundle mounts the attack the independent
// checker exists to stop: the OOB-trip-count loop is unprovable, so an
// "analyzer" (here: us, tampering the bundle) claims a tighter loop
// invariant — the counter never exceeds 3 — and forges a proof that the
// access stays inside the table. The claim is not inductive (the back
// edge carries counter values up to 7), so the checker must reject the
// whole bundle.
func TestTamperedInvariantRejectsBundle(t *testing.T) {
	p := buildProg(t, inductionLoop(8))
	an, err := ptrflow.Analyze(p, ptrflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := an.ProofBundle()
	if len(b.Proofs) != 0 {
		t.Fatalf("OOB loop should carry no proofs, got %d", len(b.Proofs))
	}
	tampered := 0
	for i := range b.Invariants {
		f := &b.Invariants[i].Regs[isa.R9]
		if f.Tag == ptrflow.FactNotPtr && !f.Rng.Full() {
			f.Rng = f.Rng.Meet(ptrflow.Interval{Lo: 0, Hi: 3})
			tampered++
		}
	}
	if tampered == 0 {
		t.Fatal("no counter invariant found to tamper")
	}
	b.Proofs = append(b.Proofs, ptrflow.Proof{
		Addr: p.MustLookup("loop"), MacroIdx: 0, Region: "tab", Lo: 0, Hi: 24, Size: 8,
	})
	ck, err := newChecker(p, b, 1)
	if err != nil {
		t.Fatalf("precondition reject (want induction reject): %v", err)
	}
	if err := ck.verifyInduction(); err == nil {
		t.Fatal("tampered (non-inductive) invariant passed the induction check")
	}
}

// TestForgedProofRejected keeps the bundle honest but forges only the
// proof: induction holds, yet the checker's own bounds for the OOB site
// ([0,56] of a 32-byte table) exceed the region span, so the site check
// must refuse it.
func TestForgedProofRejected(t *testing.T) {
	p := buildProg(t, inductionLoop(8))
	an, err := ptrflow.Analyze(p, ptrflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := an.ProofBundle()
	ck, err := newChecker(p, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.verifyInduction(); err != nil {
		t.Fatalf("honest bundle must be inductive: %v", err)
	}
	forged := &ptrflow.Proof{
		Addr: p.MustLookup("loop"), MacroIdx: 0, Region: "tab", Lo: 0, Hi: 24, Size: 8,
	}
	if err := ck.verifyProof(forged); err == nil {
		t.Fatal("forged proof for an out-of-bounds site verified")
	}
}

// TestTamperedStoreClaimRejectsBundle narrows a region's claimed store
// summary below what the program actually stores: the store-subsumption
// check must fail and reject the bundle.
func TestTamperedStoreClaimRejectsBundle(t *testing.T) {
	p := buildProg(t, func(b *asm.Builder) {
		b.MovRI(isa.RDI, 64)
		b.CallAddr(heap.MallocEntry)
		b.MovRI(isa.RCX, 7)
		b.Store(isa.RAX, 0, isa.RCX) // stores 7 into the chunk
		b.Hlt()
	})
	an, err := ptrflow.Analyze(p, ptrflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := an.ProofBundle()
	tampered := false
	for i := range b.Regions {
		r := &b.Regions[i]
		if r.Name == ptrflow.HeapRegion {
			// Claim the heap only ever holds zero.
			r.Stores = ptrflow.Fact{Tag: ptrflow.FactNotPtr, Rng: ptrflow.Const(0)}
			tampered = true
		}
	}
	if !tampered {
		t.Fatal("no heap region claim to tamper")
	}
	ck, err := newChecker(p, b, 1)
	if err != nil {
		t.Fatalf("precondition reject (want induction reject): %v", err)
	}
	err = ck.verifyInduction()
	if err == nil {
		t.Fatal("store wider than the tampered claim passed the induction check")
	}
	if !strings.Contains(err.Error(), "store") {
		t.Fatalf("rejection should name the store subsumption failure, got: %v", err)
	}
}
