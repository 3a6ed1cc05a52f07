package pipeline

import (
	"fmt"
	"runtime"
	"testing"

	"chex86/internal/asm"
	"chex86/internal/decode"
	"chex86/internal/heap"
	"chex86/internal/isa"
	"chex86/internal/workload"
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

// churnLoopRecs is the number of committed records in one iteration of
// churnLoopProgram's loop, the malloc and free calls with their exits
// included.
const churnLoopRecs = 11

// churnLoopProgram builds a non-terminating guest that mallocs a buffer,
// stores to and loads from it, and frees it on every iteration, so the
// allocator interception, capability create/revoke and tracker paths run
// each time round the loop.
func churnLoopProgram() *asm.Program {
	b := asm.NewBuilder()
	b.Label("loop")
	b.MovRI(isa.RDI, 64)
	b.CallAddr(heap.MallocEntry)
	b.MovRR(isa.R12, isa.RAX)
	b.MovRI(isa.RCX, 3)
	b.StoreIdx(isa.R12, isa.RCX, 8, 0, isa.RCX)
	b.LoadIdx(isa.RBX, isa.R12, isa.RCX, 8, 0)
	b.MovRR(isa.RDI, isa.R12)
	b.CallAddr(heap.FreeEntry)
	b.Jmp("loop")
	return b.MustBuild()
}

// steadySim builds a Sim for prog on the given harts and steps it warmup
// rounds, past allocator interception, first-touch page materialization
// and structure growth, so only the steady state is measured.
func steadySim(tb testing.TB, prog *asm.Program, v decode.Variant, harts, warmup int) *Sim {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Variant = v
	sim, err := NewSim(prog, cfg, harts)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := sim.Step(warmup); err != nil {
		tb.Fatal(err)
	}
	return sim
}

// TestProcessRecSteadyStateAllocs asserts the zero-allocation contract of
// the hot loop under every variant: one full Sim.Step — emulator step,
// record pooling, decode (μop cache hit), instrumentation, and timing —
// must not allocate in steady state on the allocation-quiet loop. The
// prediction variant's tracker structures may still grow occasionally
// (map rehashing amortizes), so its bound is near-zero rather than zero.
//
// The same table runs a loop that mallocs and frees every iteration, at
// one and two harts. Each guest malloc allocates one host object for the
// emulator's ground-truth span (emu.Truth.Add) and, under the variants
// that track pointers, one for its capability (core.Table.GenBegin);
// those per-allocation records are the bound, so any other allocation on
// the malloc/free path fails the row. AllocsPerRun
// truncates to whole allocations per run, so each run steps one full
// loop iteration per hart.
func TestProcessRecSteadyStateAllocs(t *testing.T) {
	variants := []struct {
		name    string
		variant decode.Variant
		max     float64 // objects per run
	}{
		{"insecure", decode.VariantInsecure, 0},
		{"hardware-only", decode.VariantHardwareOnly, 0},
		{"binary-translation", decode.VariantBinaryTranslation, 0},
		{"always-on", decode.VariantMicrocodeAlwaysOn, 0},
		{"prediction", decode.VariantMicrocodePrediction, 0.05},
		{"asan", decode.VariantASan, 0},
		{"watchdog", decode.VariantWatchdog, 0},
	}
	check := func(t *testing.T, sim *Sim, runs, rounds int, bound float64) {
		n := testing.AllocsPerRun(runs, func() {
			if _, err := sim.Step(rounds); err != nil {
				t.Fatal(err)
			}
		})
		if n > bound {
			t.Fatalf("steady-state Sim.Step(%d) allocates %.3f objects/run, want <= %v", rounds, n, bound)
		}
	}
	for _, tc := range variants {
		t.Run(tc.name, func(t *testing.T) {
			check(t, steadySim(t, steadyLoopProgram(), tc.variant, 1, 5000), 2000, 1, tc.max)
		})
	}
	for _, harts := range []int{1, 2} {
		for _, tc := range variants {
			perMalloc := 1
			if tc.variant.UsesTracker() {
				perMalloc = 2
			}
			bound := tc.max + float64(harts*perMalloc)
			t.Run(fmt.Sprintf("malloc-free-%dhart-%s", harts, tc.name), func(t *testing.T) {
				check(t, steadySim(t, churnLoopProgram(), tc.variant, harts, 20000), 5000, churnLoopRecs, bound)
			})
		}
	}
}

// TestNewSimFootprint pins what NewSim allocates for the default machine
// at one and four harts. Cache line storage is allocated only for the sets
// a run fills, and each core's nine bandwidth windows only for the pages
// a run reserves from, so an untouched Sim holds the caches' way tables,
// the TLBs and the cores' small scheduling structures (about 0.4 MB at
// one hart), not the 3 MB of the Table III LLC or 576 KiB of windows per
// core.
func TestNewSimFootprint(t *testing.T) {
	for _, tc := range []struct {
		harts    int
		maxBytes uint64
		maxObjs  uint64
	}{
		// Measured 380,776 B in 87 objects and 920,432 B in 238; the
		// bounds leave about 25% headroom. Inline windows add 576 KiB a
		// core, and per-set TLB slices add 50 objects a core.
		{1, 475_000, 109},
		{4, 1_150_000, 298},
	} {
		prog := steadyLoopProgram()
		cfg := DefaultConfig()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sim, err := NewSim(prog, cfg, tc.harts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(sim)
		bytes, objs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("NewSim, %d harts: %d B in %d objects", tc.harts, bytes, objs)
		if bytes > tc.maxBytes || objs > tc.maxObjs {
			t.Errorf("NewSim with %d harts allocates %d B in %d objects, want at most %d B in %d",
				tc.harts, bytes, objs, tc.maxBytes, tc.maxObjs)
		}
	}
}

// TestSimRunFootprint pins what a finished simulation retains: the live
// heap after a full collection with the Sim still reachable, less the
// same reading taken before NewSim. Cache line storage grows a way at a
// time as sets fill, and the one μop table a Sim holds is sized to its
// program, so mcf on one hart and canneal on four at scale 0.1 retain a
// few MB rather than the Table III LLC's 2 MB of lines plus 256 KB of μop
// slots per core.
func TestSimRunFootprint(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBytes uint64
	}{
		// Measured 3,721,072 B and 6,803,192 B; the bounds leave about
		// 25% headroom. With a set's every way taken at its first fill
		// and a 4,096-slot μop table per core, they read 5,202,400 B and
		// 8,770,568 B.
		{"mcf", 4_650_000},
		{"canneal", 8_500_000},
	} {
		p := workload.ByName(tc.name)
		prog, err := p.Build(0.1)
		if err != nil {
			t.Fatal(err)
		}
		harts := max(p.Threads, 1)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sim, err := NewSim(prog, DefaultConfig(), harts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained := after.HeapAlloc - before.HeapAlloc
		t.Logf("%s, %d harts: %d B retained", tc.name, harts, retained)
		if retained > tc.maxBytes {
			t.Errorf("%s on %d harts retains %d B, want at most %d", tc.name, harts, retained, tc.maxBytes)
		}

		slots := 1
		for slots < len(prog.Insts) {
			slots <<= 1
		}
		if sim.uc == nil || len(sim.uc.slots) > slots {
			t.Errorf("%s: want one μop table of at most %d slots for %d instructions", tc.name, slots, len(prog.Insts))
		}
		// Every static instruction, plus the RET at each allocator exit.
		if st := sim.UopCacheStats(); st.Entries > len(prog.Insts)+4 {
			t.Errorf("%s: %d μop-cache entries for %d instructions", tc.name, st.Entries, len(prog.Insts))
		}
		runtime.KeepAlive(sim)
	}
}
