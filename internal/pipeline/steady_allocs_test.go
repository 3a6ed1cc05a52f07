package pipeline

import (
	"testing"

	"chex86/internal/asm"
	"chex86/internal/decode"
	"chex86/internal/heap"
	"chex86/internal/isa"
)

// steadyLoopProgram builds a non-terminating, allocation-quiet guest: one
// heap buffer allocated up front, then an infinite loop of bounded loads,
// stores, and ALU work over it. After warmup nothing in the simulator
// should allocate while running it — the steady-state contract the
// AllocsPerRun tests below assert.
func steadyLoopProgram() *asm.Program {
	b := asm.NewBuilder()
	const words = 64
	b.MovRI(isa.RDI, words*8)
	b.CallAddr(heap.MallocEntry)
	b.MovRR(isa.R12, isa.RAX)
	b.MovRI(isa.RCX, 0)
	b.Label("loop")
	b.StoreIdx(isa.R12, isa.RCX, 8, 0, isa.RCX)
	b.LoadIdx(isa.RBX, isa.R12, isa.RCX, 8, 0)
	b.AddRR(isa.RBX, isa.RCX)
	b.AddRI(isa.RCX, 1)
	b.Alu(isa.AND, isa.RegOp(isa.RCX), isa.ImmOp(words-1))
	b.Jmp("loop")
	return b.MustBuild()
}

func steadySim(tb testing.TB, v decode.Variant) *Sim {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Variant = v
	sim, err := NewSim(steadyLoopProgram(), cfg, 1)
	if err != nil {
		tb.Fatal(err)
	}
	// Warm up past allocator interception, first-touch page materialization,
	// and structure growth so only the steady state is measured.
	if _, err := sim.Step(5000); err != nil {
		tb.Fatal(err)
	}
	return sim
}

// TestProcessRecSteadyStateAllocs asserts the tentpole's zero-allocation
// contract on the insecure baseline: one full Sim.Step — emulator step,
// record pooling, decode (μop cache hit), instrumentation, and timing —
// must not allocate in steady state.
func TestProcessRecSteadyStateAllocs(t *testing.T) {
	sim := steadySim(t, decode.VariantInsecure)
	n := testing.AllocsPerRun(2000, func() {
		if _, err := sim.Step(1); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("insecure steady-state Sim.Step allocates %.3f objects/instruction, want 0", n)
	}
}

// TestProcessRecTrackedSteadyStateAllocs bounds the tracked
// (MicrocodePrediction) variant. Its hot path shares the same pooled
// machinery; the tracker's own structures may still grow occasionally
// (map rehashing amortizes), so the bound is near-zero rather than zero.
func TestProcessRecTrackedSteadyStateAllocs(t *testing.T) {
	sim := steadySim(t, decode.VariantMicrocodePrediction)
	n := testing.AllocsPerRun(2000, func() {
		if _, err := sim.Step(1); err != nil {
			t.Fatal(err)
		}
	})
	if n > 0.05 {
		t.Fatalf("tracked steady-state Sim.Step allocates %.3f objects/instruction, want ~0", n)
	}
}
