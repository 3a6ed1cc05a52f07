package elide

import (
	"strings"
	"testing"

	"chex86/internal/asm"
	"chex86/internal/isa"
	"chex86/internal/ptrflow"
)

// lostFrameProgram loads a pointer to a relocated 32-byte table, runs
// lose (which destroys stack-slot addressing), jumps to a second block
// and dereferences the table there. The jump gives the second block a
// single predecessor, so its invariant is that block's out-state as is.
func lostFrameProgram(lose func(b *asm.Builder)) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.Global("tab", 0x601000, 32)
		for i := uint64(0); i < 4; i++ {
			b.DataU64(0x601000+8*i, 1)
		}
		b.Global("tabp", 0x600000, 8)
		b.Reloc(0x600000, "tab")
		b.Mov(isa.RegOp(isa.RBX), isa.MemOp(isa.RNone, 0x600000))
		lose(b)
		b.Jmp("next")
		b.Label("next")
		b.Load(isa.R8, isa.RBX, 8)
		b.Hlt()
	}
}

// TestLostFrameVerifies pins the fix for lost slot addressing: a block
// that overwrites RSP or calls unknown external code loses its frame,
// and its successor's invariant must say so (frameOk false). A copy
// that turned a lost frame back into an empty valid one made the
// analyzer claim a frame its own checker then refuted, rejecting the
// whole bundle.
func TestLostFrameVerifies(t *testing.T) {
	cases := []struct {
		name   string
		lose   func(b *asm.Builder)
		elided int
	}{
		{"rsp-overwrite", func(b *asm.Builder) {
			b.MovRR(isa.RBP, isa.RSP)
			b.MovRR(isa.RSP, isa.RBP)
		}, 1},
		// Unknown external code clobbers every register, so the load
		// keeps its check; the bundle must still verify.
		{"unknown-call", func(b *asm.Builder) { b.CallAddr(0x7f0000) }, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := buildProg(t, lostFrameProgram(c.lose))
			rep, err := ForProgram(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Verified {
				t.Fatalf("bundle rejected: %s", rep.Reason)
			}
			if rep.Stats.Elided != c.elided || rep.Stats.Rejected != 0 {
				t.Fatalf("stats %+v, want %d elided and none rejected", rep.Stats, c.elided)
			}
		})
	}
}

// twoSlotProgram spills one value into the stack slots at entry-relative
// offsets -200 and -100, then reloads one of them in a second block.
func twoSlotProgram(b *asm.Builder) {
	b.SubRI(isa.RSP, 256)
	b.MovRI(isa.RCX, 5)
	b.Store(isa.RSP, 56, isa.RCX)
	b.Store(isa.RSP, 156, isa.RCX)
	b.Jmp("next")
	b.Label("next")
	b.Load(isa.RAX, isa.RSP, 56)
	b.Hlt()
}

// twoSlotBundle analyzes twoSlotProgram and returns its bundle with the
// second block's two-slot frame claim.
func twoSlotBundle(t *testing.T) (*asm.Program, *ptrflow.Analysis, *ptrflow.Bundle, []ptrflow.SlotFact) {
	t.Helper()
	p := buildProg(t, twoSlotProgram)
	an, err := ptrflow.Analyze(p, ptrflow.Options{ContextK: -1})
	if err != nil {
		t.Fatal(err)
	}
	b := an.ProofBundle()
	for i := range b.Invariants {
		if f := b.Invariants[i].Frame; len(f) == 2 && f[0].Off == -200 && f[1].Off == -100 {
			return p, an, b, f
		}
	}
	t.Fatalf("no invariant claims slots -200 and -100:\n%+v", b.Invariants)
	return nil, nil, nil, nil
}

// TestFrameClaimRejectionDeterministic narrows both claimed slots below
// what the program stores. The rejection reason flows into every keep
// decision and so into the report digest, a campaign cache key: it must
// name the lowest failing slot on every run. A checker that walked the
// claims in map order named slot -200 on about 9 runs in 10, so 100 runs
// catch it.
func TestFrameClaimRejectionDeterministic(t *testing.T) {
	p, an, b, frame := twoSlotBundle(t)
	for i := range frame {
		frame[i].Fact.Rng = ptrflow.Const(6) // the program stores 5
	}
	var reason, digest string
	for run := 0; run < 100; run++ {
		rep := verify(p, b, an.SortedSites(), Options{})
		if rep.Verified {
			t.Fatal("bundle with two unestablished slot claims verified")
		}
		if !strings.Contains(rep.Reason, "frame slot -200:") {
			t.Fatalf("run %d: reason %q, want the lowest failing slot -200", run, rep.Reason)
		}
		if run == 0 {
			reason, digest = rep.Reason, rep.Digest
		} else if rep.Reason != reason || rep.Digest != digest {
			t.Fatalf("run %d: reason %q digest %s, run 0 gave %q digest %s",
				run, rep.Reason, rep.Digest, reason, digest)
		}
	}
}

// TestFrameClaimOrderValidated rejects a frame claim whose slots are out
// of order or repeat an offset: the checker walks claims in order and
// must never silently keep one of two facts for the same slot.
func TestFrameClaimOrderValidated(t *testing.T) {
	for _, c := range []struct {
		name   string
		tamper func(f []ptrflow.SlotFact)
	}{
		{"unsorted", func(f []ptrflow.SlotFact) { f[0], f[1] = f[1], f[0] }},
		{"duplicate", func(f []ptrflow.SlotFact) { f[1].Off = f[0].Off }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, an, b, frame := twoSlotBundle(t)
			if rep := verify(p, b, an.SortedSites(), Options{}); !rep.Verified {
				t.Fatalf("honest bundle rejected: %s", rep.Reason)
			}
			c.tamper(frame)
			rep := verify(p, b, an.SortedSites(), Options{})
			if rep.Verified {
				t.Fatal("malformed frame claim verified")
			}
			if !strings.Contains(rep.Reason, "not strictly ascending") {
				t.Fatalf("reason %q, want the slot-order rejection", rep.Reason)
			}
		})
	}
}
