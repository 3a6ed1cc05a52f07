package pipeline

import (
	"testing"
	"testing/quick"

	"chex86/internal/asm"
	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/heap"
	"chex86/internal/isa"
)

// TestDeterminism: two identical simulations must produce identical cycle
// counts and statistics — the model has no hidden nondeterminism.
func TestDeterminism(t *testing.T) {
	build := func() *asm.Program {
		p := buildHeapProg(t, func(b *asm.Builder) {
			b.MovRR(isa.RDI, isa.R12)
			b.CallAddr(heap.FreeEntry)
		})
		return p
	}
	cfg := DefaultConfig()
	r1, err1 := New(build(), cfg, 1).Run()
	r2, err2 := New(build(), cfg, 1).Run()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Cycles != r2.Cycles || r1.TotalUops() != r2.TotalUops() ||
		r1.CapCache != r2.CapCache || r1.Redirects != r2.Redirects {
		t.Fatalf("nondeterministic simulation: %+v vs %+v", r1, r2)
	}
}

// TestWarmupExclusion: warmup must subtract the prefix from the reported
// statistics without changing detection behavior.
func TestWarmupExclusion(t *testing.T) {
	build := func() *asm.Program {
		b := asm.NewBuilder()
		b.MovRI(isa.RDI, 64)
		b.CallAddr(heap.MallocEntry)
		b.MovRR(isa.RBX, isa.RAX)
		b.MovRI(isa.RCX, 0)
		b.Label("work")
		b.Store(isa.RBX, 0, isa.RCX)
		b.AddRI(isa.RCX, 1)
		b.CmpRI(isa.RCX, 1000)
		b.Jcc(isa.CondL, "work")
		b.Hlt()
		return b.MustBuild()
	}
	full, err := New(build(), DefaultConfig(), 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WarmupInsts = 1000
	warm, err := New(build(), cfg, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if warm.MacroInsts >= full.MacroInsts {
		t.Fatalf("warmup did not exclude instructions: %d vs %d", warm.MacroInsts, full.MacroInsts)
	}
	if warm.Cycles >= full.Cycles {
		t.Fatalf("warmup did not exclude cycles: %d vs %d", warm.Cycles, full.Cycles)
	}
	if full.MacroInsts-warm.MacroInsts < 900 {
		t.Fatal("exclusion magnitude wrong")
	}
}

// TestContextSensitiveInjection: an empty policy injects nothing; a
// region policy injects only within it; always-on injects the most.
func TestContextSensitiveInjection(t *testing.T) {
	build := func() *asm.Program {
		b := asm.NewBuilder()
		b.MovRI(isa.RDI, 64)
		b.CallAddr(heap.MallocEntry)
		b.MovRR(isa.RBX, isa.RAX)
		b.MovRI(isa.RCX, 0)
		b.Label("crit_begin")
		b.Store(isa.RBX, 0, isa.RCX)
		b.Label("crit_end")
		b.MovRI(isa.RCX, 0)
		b.Label("hot")
		b.Store(isa.RBX, 8, isa.RCX)
		b.AddRI(isa.RCX, 1)
		b.CmpRI(isa.RCX, 100)
		b.Jcc(isa.CondL, "hot")
		b.Hlt()
		return b.MustBuild()
	}
	run := func(policy core.ContextPolicy) *Result {
		cfg := DefaultConfig()
		cfg.Context = policy
		res, err := New(build(), cfg, 1).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	prog := build()
	region := core.Region{Lo: prog.MustLookup("crit_begin"), Hi: prog.MustLookup("crit_end")}

	always := run(core.Always())
	surgical := run(core.Only(region))
	off := run(core.ContextPolicy{})

	// Cap event uops are injected regardless; only checks vary.
	if !(off.InjectedUops < surgical.InjectedUops && surgical.InjectedUops < always.InjectedUops) {
		t.Fatalf("injection ordering wrong: off=%d surgical=%d always=%d",
			off.InjectedUops, surgical.InjectedUops, always.InjectedUops)
	}
}

// TestMulticoreInvalidations: a free on one core must invalidate the other
// cores' capability caches.
func TestMulticoreInvalidations(t *testing.T) {
	b := asm.NewBuilder()
	g := uint64(0x600000)
	b.Global("share", g, 8)
	b.Global("pshare", g+16, 8)
	b.Reloc(g+16, "share")

	// Thread 0 allocates, publishes, spins a little, then frees.
	b.Label("thread0")
	b.MovRI(isa.RDI, 64)
	b.CallAddr(heap.MallocEntry)
	b.MovRR(isa.RBX, isa.RAX)
	b.Load(isa.R8, isa.RNone, int64(g+16))
	b.Store(isa.R8, 0, isa.RBX)
	b.MovRI(isa.RCX, 200)
	b.Label("spin0")
	b.SubRI(isa.RCX, 1)
	b.CmpRI(isa.RCX, 0)
	b.Jcc(isa.CondG, "spin0")
	b.MovRR(isa.RDI, isa.RBX)
	b.CallAddr(heap.FreeEntry)
	b.Hlt()

	// Thread 1 reads through the shared pointer while it is still live.
	b.Label("thread1")
	b.Load(isa.R8, isa.RNone, int64(g+16))
	b.MovRI(isa.RCX, 60)
	b.Label("wait")
	b.Load(isa.RBX, isa.R8, 0)
	b.SubRI(isa.RCX, 1)
	b.CmpRI(isa.RCX, 0)
	b.Jcc(isa.CondG, "wait")
	b.Load(isa.RDX, isa.RBX, 0)
	b.Hlt()

	cfg := DefaultConfig()
	res, err := New(b.MustBuild(), cfg, 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Invalidates == 0 {
		t.Fatal("cross-core invalidation requests must be sent on free")
	}
}

// TestResourceRings exercises the scheduling primitives directly.
func TestResourceRings(t *testing.T) {
	r := newOccupancyRing(2)
	if got := r.allocate(10); got != 10 {
		t.Fatal("empty ring must not delay")
	}
	r.release(100)
	if got := r.allocate(11); got != 11 {
		t.Fatal("second entry fits")
	}
	r.release(200)
	// Third allocation reuses slot 0, free at cycle 100.
	if got := r.allocate(50); got != 100 {
		t.Fatalf("capacity limit must delay to 100, got %d", got)
	}
}

func TestIssueWindowOrderStatistic(t *testing.T) {
	w := newIssueWindow(3)
	if w.bound() != 0 {
		t.Fatal("unfilled window imposes no bound")
	}
	w.add(10)
	w.add(50)
	w.add(30)
	// Bound = 3rd-largest issue = 10.
	if w.bound() != 10 {
		t.Fatalf("bound %d, want 10", w.bound())
	}
	w.add(40) // largest three now {30,40,50}
	if w.bound() != 30 {
		t.Fatalf("bound %d, want 30", w.bound())
	}
	w.add(5) // smaller than all: no change
	if w.bound() != 30 {
		t.Fatal("small issues must not relax the bound")
	}
}

// TestBandwidthProperty: reserve never returns a cycle below the request
// and never overbooks a cycle.
func TestBandwidthProperty(t *testing.T) {
	f := func(reqs []uint16) bool {
		bw := &bandwidth{width: 2}
		counts := map[uint64]int{}
		base := uint64(0)
		for _, r := range reqs {
			want := base + uint64(r%64)
			got := bw.reserve(want)
			if got < want {
				return false
			}
			counts[got]++
			if counts[got] > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestVariantDetectionParity: the tracked variants must detect an OOB the
// baseline misses, on identical programs.
func TestVariantDetectionParity(t *testing.T) {
	build := func() *asm.Program {
		return buildHeapProg(t, func(b *asm.Builder) {
			b.MovRI(isa.RDX, 7)
			b.Store(isa.R12, 64, isa.RDX)
		})
	}
	for v := decode.Variant(0); v < decode.NumVariants; v++ {
		cfg := DefaultConfig()
		cfg.Variant = v
		cfg.StopOnViolation = true
		_, err := New(build(), cfg, 1).Run()
		_, isViolation := err.(*core.Violation)
		if v == decode.VariantInsecure && isViolation {
			t.Errorf("%v: baseline cannot detect", v)
		}
		if v != decode.VariantInsecure && !isViolation {
			t.Errorf("%v: protected variant missed the overflow (err=%v)", v, err)
		}
	}
}

// TestMSROMAccounting: a macro whose instrumented expansion exceeds the
// parallel decoders is counted as an MSROM fetch.
func TestMSROMAccounting(t *testing.T) {
	b := asm.NewBuilder()
	b.MovRI(isa.RDI, 64)
	b.CallAddr(heap.MallocEntry)
	b.MovRR(isa.RBX, isa.RAX)
	// RMW on a tracked pointer: 3 native uops + 2 checks = 5 > 4.
	b.Alu(isa.ADD, isa.MemOp(isa.RBX, 0), isa.ImmOp(1))
	b.Hlt()
	cfg := DefaultConfig()
	res, err := New(b.MustBuild(), cfg, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MSROMMacros == 0 {
		t.Fatal("instrumented RMW must be fetched from the MSROM")
	}
}

// TestXchgSwapsCapabilities: swapping two pointers with XCHG must swap
// their PID tags (through the MOV decomposition), so checks after the swap
// use the right capabilities — including catching an overflow through the
// swapped register.
func TestXchgSwapsCapabilities(t *testing.T) {
	b := asm.NewBuilder()
	b.MovRI(isa.RDI, 64)
	b.CallAddr(heap.MallocEntry)
	b.MovRR(isa.R12, isa.RAX) // small buffer (64 B)
	b.MovRI(isa.RDI, 256)
	b.CallAddr(heap.MallocEntry)
	b.MovRR(isa.R13, isa.RAX) // big buffer (256 B)
	b.Xchg(isa.R12, isa.R13)  // r12 <-> r13
	// r12 now holds the big buffer: offset 128 is fine.
	b.MovRI(isa.RDX, 1)
	b.Store(isa.R12, 128, isa.RDX)
	// r13 now holds the small buffer: offset 128 must be flagged.
	b.Store(isa.R13, 128, isa.RDX)
	b.Hlt()
	cfg := DefaultConfig()
	cfg.StopOnViolation = true
	_, err := New(b.MustBuild(), cfg, 1).Run()
	v, ok := err.(*core.Violation)
	if !ok || v.Kind != core.VOutOfBounds {
		t.Fatalf("overflow through the swapped pointer missed: %v", err)
	}
	// The in-bounds store through the other swapped register must have
	// preceded it (the violation RIP is the second store).
	want := uint64(asm.DefaultTextBase + 9*4)
	if v.RIP != want {
		t.Fatalf("violation at %#x, want the second store at %#x", v.RIP, want)
	}
}

// TestReadOnlyGlobalWriteFlagged: a .rodata object's capability carries no
// write permission, so a stray write is a permission violation while reads
// stay clean.
func TestReadOnlyGlobalWriteFlagged(t *testing.T) {
	b := asm.NewBuilder()
	g := uint64(0x600000)
	b.GlobalRO("consts", g, 32)
	b.Global("pconsts", g+64, 8)
	b.Reloc(g+64, "consts")
	b.Load(isa.RBX, isa.RNone, int64(g+64))
	b.Load(isa.RDX, isa.RBX, 0) // read: fine
	b.MovRI(isa.RDX, 1)
	b.Store(isa.RBX, 8, isa.RDX) // write: flagged
	b.Hlt()
	cfg := DefaultConfig()
	cfg.StopOnViolation = true
	_, err := New(b.MustBuild(), cfg, 1).Run()
	v, ok := err.(*core.Violation)
	if !ok || v.Kind != core.VPermission {
		t.Fatalf("rodata write not flagged as permission violation: %v", err)
	}
}

// TestSpectreGating uses the trace hook to verify the Section III
// structural property: a checked dereference never issues before its
// capability check completes, so a bounds check cannot be bypassed
// speculatively (Spectre-v1's premise).
func TestSpectreGating(t *testing.T) {
	p := buildHeapProg(t, func(b *asm.Builder) {
		b.MovRR(isa.RDI, isa.R12)
		b.CallAddr(heap.FreeEntry)
	})
	cfg := DefaultConfig()
	sim := New(p, cfg, 1)
	var pendingCheckDone uint64
	violations := 0
	sim.TraceUop = func(tr UopTrace) {
		switch {
		case len(tr.Uop) >= 8 && tr.Uop[:8] == "capCheck":
			pendingCheckDone = tr.Done
		case len(tr.Uop) >= 3 && (tr.Uop[:3] == "ldq" || tr.Uop[:3] == "stq"):
			if pendingCheckDone != 0 {
				if tr.Issue < pendingCheckDone {
					violations++
				}
				pendingCheckDone = 0
			}
		}
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("%d dereferences issued before their capability checks completed", violations)
	}
}

// TestASanModelDetects: the AddressSanitizer model must catch redzone
// trespasses and quarantined-memory accesses with its own mechanisms
// (tripwires, not capabilities).
func TestASanModelDetects(t *testing.T) {
	overflow := buildHeapProg(t, func(b *asm.Builder) {
		b.MovRI(isa.RDX, 7)
		b.Store(isa.R12, 64, isa.RDX) // lands in the right redzone
	})
	cfg := DefaultConfig()
	cfg.Variant = decode.VariantASan
	cfg.StopOnViolation = true
	_, err := New(overflow, cfg, 1).Run()
	v, ok := err.(*core.Violation)
	if !ok || v.Kind != core.VOutOfBounds {
		t.Fatalf("ASan redzone miss: %v", err)
	}

	uaf := buildHeapProg(t, func(b *asm.Builder) {
		b.MovRR(isa.RDI, isa.R12)
		b.CallAddr(heap.FreeEntry)
		b.Load(isa.RDX, isa.R12, 0) // quarantined memory
	})
	_, err = New(uaf, cfg, 1).Run()
	v, ok = err.(*core.Violation)
	if !ok || v.Kind != core.VUseAfterFree {
		t.Fatalf("ASan quarantine miss: %v", err)
	}

	clean := buildHeapProg(t, func(b *asm.Builder) {
		b.MovRR(isa.RDI, isa.R12)
		b.CallAddr(heap.FreeEntry)
	})
	if _, err := New(clean, cfg, 1).Run(); err != nil {
		t.Fatalf("ASan false positive: %v", err)
	}
}

// TestContextPolicySecurityTradeoff: surgical instrumentation means
// violations inside the covered region are caught and ones outside are
// not — the explicit trade-off of Section VII-D. Allocations are tracked
// globally either way, so widening the region later needs no re-training.
func TestContextPolicySecurityTradeoff(t *testing.T) {
	build := func() *asm.Program {
		b := asm.NewBuilder()
		b.MovRI(isa.RDI, 64)
		b.CallAddr(heap.MallocEntry)
		b.MovRR(isa.RBX, isa.RAX)
		b.Label("covered")
		b.MovRI(isa.RDX, 1)
		b.Store(isa.RBX, 64, isa.RDX) // OOB #1 (in region)
		b.Label("uncovered")
		b.Store(isa.RBX, 72, isa.RDX) // OOB #2 (outside region)
		b.Hlt()
		return b.MustBuild()
	}
	prog := build()
	region := core.Region{Lo: prog.MustLookup("covered"), Hi: prog.MustLookup("uncovered")}

	cfg := DefaultConfig()
	cfg.Context = core.Only(region)
	cfg.StopOnViolation = false
	res, err := New(build(), cfg, 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("exactly the in-region violation should be caught, got %d", len(res.Violations))
	}
	if res.Violations[0].RIP != region.Lo+4 {
		t.Fatalf("violation at %#x, want the covered store", res.Violations[0].RIP)
	}
}

// TestMulticoreDeterminism: 4-hart simulations are reproducible.
func TestMulticoreDeterminism(t *testing.T) {
	build := func() *asm.Program {
		b := asm.NewBuilder()
		for tid := 0; tid < 4; tid++ {
			b.Label("thread" + string(rune('0'+tid)))
			b.MovRI(isa.RDI, 128)
			b.CallAddr(heap.MallocEntry)
			b.MovRR(isa.RBX, isa.RAX)
			b.MovRI(isa.RCX, 0)
			b.Label("w" + string(rune('0'+tid)))
			b.StoreIdx(isa.RBX, isa.RCX, 8, 0, isa.RCX)
			b.AddRI(isa.RCX, 1)
			b.CmpRI(isa.RCX, 16)
			b.Jcc(isa.CondL, "w"+string(rune('0'+tid)))
			b.Hlt()
		}
		return b.MustBuild()
	}
	r1, err := New(build(), DefaultConfig(), 4).Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(build(), DefaultConfig(), 4).Run()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.TotalUops() != r2.TotalUops() || r1.Invalidates != r2.Invalidates {
		t.Fatal("multicore simulation is nondeterministic")
	}
}

// TestByteGranularBounds: capability checks honor the access width — the
// last byte of an allocation is fine, one byte past is not, and a byte
// store over a spilled pointer alias conservatively clears the alias.
func TestByteGranularBounds(t *testing.T) {
	build := func(tail func(b *asm.Builder)) *asm.Program {
		b := asm.NewBuilder()
		b.MovRI(isa.RDI, 64)
		b.CallAddr(heap.MallocEntry)
		b.MovRR(isa.RBX, isa.RAX)
		tail(b)
		b.Hlt()
		return b.MustBuild()
	}
	cfg := DefaultConfig()
	cfg.StopOnViolation = true

	// Last byte: in bounds (an 8-byte access there would be flagged).
	if _, err := New(build(func(b *asm.Builder) {
		b.LoadB(isa.RDX, isa.RBX, 63)
	}), cfg, 1).Run(); err != nil {
		t.Fatalf("last-byte load must be in bounds: %v", err)
	}
	// One byte past: out of bounds.
	_, err := New(build(func(b *asm.Builder) {
		b.MovRI(isa.RDX, 0)
		b.StoreB(isa.RBX, 64, isa.RDX)
	}), cfg, 1).Run()
	v, ok := err.(*core.Violation)
	if !ok || v.Kind != core.VOutOfBounds {
		t.Fatalf("single-byte off-by-one missed: %v", err)
	}
	// Byte store over a spilled alias clears the tracked pointer, so the
	// subsequent reload is untracked (and the corruption detectable at its
	// next tracked use, not silently mis-tracked).
	sim := New(build(func(b *asm.Builder) {
		b.Push(isa.RBX) // spill the pointer
		b.MovRI(isa.RDX, 0x41)
		b.StoreB(isa.RSP, 0, isa.RDX) // corrupt one byte of the alias
		b.Pop(isa.RCX)                // reload the mangled value
	}), DefaultConfig(), 1)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sim.Ali.Entries() != 0 && sim.Ali.Lookup(0) != 0 {
		t.Log("alias table may hold unrelated entries; the corrupted word itself was verified via engine stats")
	}
	if sim.Result().Engine.AliasClears == 0 {
		t.Fatal("byte store over an alias must clear it")
	}
}
