package pipeline

import (
	"runtime"
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

// TestProcessRecSteadyStateAllocs asserts the zero-allocation contract of
// the hot loop under every variant: one full Sim.Step — emulator step,
// record pooling, decode (μop cache hit), instrumentation, and timing —
// must not allocate in steady state. The prediction variant's tracker
// structures may still grow occasionally (map rehashing amortizes), so its
// bound is near-zero rather than zero.
func TestProcessRecSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		variant decode.Variant
		max     float64 // objects per instruction
	}{
		{"insecure", decode.VariantInsecure, 0},
		{"hardware-only", decode.VariantHardwareOnly, 0},
		{"binary-translation", decode.VariantBinaryTranslation, 0},
		{"always-on", decode.VariantMicrocodeAlwaysOn, 0},
		{"prediction", decode.VariantMicrocodePrediction, 0.05},
		{"asan", decode.VariantASan, 0},
		{"watchdog", decode.VariantWatchdog, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := steadySim(t, tc.variant)
			n := testing.AllocsPerRun(2000, func() {
				if _, err := sim.Step(1); err != nil {
					t.Fatal(err)
				}
			})
			if n > tc.max {
				t.Fatalf("steady-state Sim.Step allocates %.3f objects/instruction, want <= %v", n, tc.max)
			}
		})
	}
}

// TestNewSimFootprint pins what NewSim allocates for the default 1-hart
// machine. Cache line storage is allocated only for the sets a run fills,
// so an untouched Sim holds the caches' way tables and one core's
// scheduling windows (about 0.6 MB), not the 3 MB of the Table III LLC.
func TestNewSimFootprint(t *testing.T) {
	prog := steadyLoopProgram()
	cfg := DefaultConfig()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim, err := NewSim(prog, cfg, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(sim)
	bytes, objs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("NewSim: %d B in %d objects", bytes, objs)
	if bytes > 1_250_000 || objs > 147 {
		t.Fatalf("NewSim allocates %d B in %d objects, want at most 1,250,000 B in 147", bytes, objs)
	}
}
