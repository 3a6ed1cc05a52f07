package chex86_test

import (
	"errors"
	"fmt"
	"log"

	"chex86"
	"chex86/internal/core"
	"chex86/internal/isa"
	"chex86/internal/patterns"
	"chex86/internal/tracker"
)

// outcome says how a run ended: the violation it stopped on, or that it
// ran to completion unnoticed.
func outcome(err error) string {
	var v *chex86.Violation
	switch {
	case errors.As(err, &v):
		return fmt.Sprintf("%s at rip=%#x (ea=%#x, pid=%d)", v.Kind, v.RIP, v.EA, v.PID)
	case err != nil:
		return "error: " + err.Error()
	}
	return "no violation"
}

// build assembles b's program; the examples' programs are known-good.
func build(b *chex86.ProgramBuilder) *chex86.Program {
	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return prog
}

// stopAt runs prog on one hart under variant v until the first violation.
func stopAt(prog *chex86.Program, v chex86.Variant) (*chex86.Result, error) {
	cfg := chex86.DefaultConfig()
	cfg.Variant = v
	cfg.StopOnViolation = true
	return chex86.Run(prog, cfg, 1)
}

// An off-by-one heap overflow in an unmodified "legacy binary": the
// insecure baseline runs it to completion, while CHEx86's capCheck μop,
// injected for the store at the microcode level, stops the 9th store of an
// 8-word buffer.
func Example_quickstart() {
	b := chex86.NewProgramBuilder()
	b.MovRI(chex86.RDI, 64)
	b.CallAddr(chex86.MallocEntry)
	b.MovRR(chex86.RBX, chex86.RAX)
	b.MovRI(chex86.RCX, 0)
	b.Label("fill")
	b.StoreIdx(chex86.RBX, chex86.RCX, 8, 0, chex86.RCX)
	b.AddRI(chex86.RCX, 1)
	b.CmpRI(chex86.RCX, 9) // bug: writes indexes 0..8 into an 8-word buffer
	b.Jcc(chex86.CondL, "fill")
	b.Hlt()
	prog := build(b)

	_, err := stopAt(prog, chex86.VariantInsecure)
	fmt.Println("insecure baseline:", outcome(err))
	_, err = stopAt(prog, chex86.VariantMicrocodePrediction)
	fmt.Println("CHEx86:           ", outcome(err))
	// Output:
	// insecure baseline: no violation
	// CHEx86:            out-of-bounds at rip=0x400010 (ea=0x10000050, pid=1)
}

// The temporal-safety story of §IV-C. A pointer is spilled to a global,
// its allocation freed through another register, and the dangling alias
// reloaded and dereferenced: the shadow table keeps the freed capability
// with its valid bit clear, the alias table recovers its PID at the reload,
// and the capCheck flags the use-after-free. Freeing one chunk twice is
// caught by capFree.Begin.
func Example_uafdetect() {
	b := chex86.NewProgramBuilder()
	g := chex86.GlobalBase
	b.Global("registry", g, 8)
	b.Global("pregistry", g+16, 8)
	b.Reloc(g+16, "registry")
	b.MovRI(chex86.RDI, 96)
	b.CallAddr(chex86.MallocEntry)
	b.Load(chex86.R8, chex86.RNone, int64(g+16)) // r8 = &registry
	b.Store(chex86.R8, 0, chex86.RAX)            // registry = node (spilled alias)
	b.MovRR(chex86.RDI, chex86.RAX)
	b.CallAddr(chex86.FreeEntry)
	b.Load(chex86.RBX, chex86.R8, 0) // reload the dangling pointer
	b.MovRI(chex86.RDX, 0x41)
	b.Store(chex86.RBX, 16, chex86.RDX) // use-after-free
	b.Hlt()
	_, err := stopAt(build(b), chex86.VariantMicrocodePrediction)
	fmt.Println("spilled alias:", outcome(err))

	b = chex86.NewProgramBuilder()
	b.MovRI(chex86.RDI, 48)
	b.CallAddr(chex86.MallocEntry)
	b.MovRR(chex86.RBX, chex86.RAX)
	b.MovRR(chex86.RDI, chex86.RBX)
	b.CallAddr(chex86.FreeEntry)
	b.MovRR(chex86.RDI, chex86.RBX)
	b.CallAddr(chex86.FreeEntry) // second free of the same chunk
	b.Hlt()
	_, err = stopAt(build(b), chex86.VariantMicrocodePrediction)
	fmt.Println("second free:  ", outcome(err))
	// Output:
	// spilled alias: use-after-free at rip=0x400020 (ea=0x10000020, pid=3)
	// second free:   double-free at rip=0x400018 (ea=0x10000010, pid=1)
}

// Context-sensitive enforcement (§VII-D): allocations are tracked
// everywhere, but capCheck μops are injected only inside the configured
// RIP regions. A hot in-bounds loop followed by a parser that writes 80
// bytes into a 64-byte buffer is caught at the same store under both
// policies; the region-only policy injects 13 checks where always-on
// injects 25,613, because the hot loop runs uninstrumented.
func Example_contextsensitive() {
	b := chex86.NewProgramBuilder()
	b.MovRI(chex86.RDI, 512)
	b.CallAddr(chex86.MallocEntry)
	b.MovRR(chex86.RBX, chex86.RAX) // hot buffer
	b.MovRI(chex86.RDI, 64)
	b.CallAddr(chex86.MallocEntry)
	b.MovRR(chex86.R12, chex86.RAX) // parse buffer

	// Hot loop: 200 in-bounds sweeps of 64 words.
	b.MovRI(chex86.RSI, 0)
	b.Label("hot")
	b.MovRI(chex86.RCX, 0)
	b.Label("sweep")
	b.LoadIdx(chex86.RDX, chex86.RBX, chex86.RCX, 8, 0)
	b.AddRI(chex86.RDX, 1)
	b.StoreIdx(chex86.RBX, chex86.RCX, 8, 0, chex86.RDX)
	b.AddRI(chex86.RCX, 1)
	b.CmpRI(chex86.RCX, 64)
	b.Jcc(chex86.CondL, "sweep")
	b.AddRI(chex86.RSI, 1)
	b.CmpRI(chex86.RSI, 200)
	b.Jcc(chex86.CondL, "hot")

	// Security-critical region: parses untrusted input with a bug.
	b.Label("critical_begin")
	b.MovRI(chex86.RCX, 0)
	b.Label("parse")
	b.StoreIdx(chex86.R12, chex86.RCX, 8, 0, chex86.RCX)
	b.AddRI(chex86.RCX, 1)
	b.CmpRI(chex86.RCX, 10) // writes 80 bytes into a 64-byte buffer
	b.Jcc(chex86.CondL, "parse")
	b.Label("critical_end")
	b.Hlt()
	prog := build(b)
	critical := chex86.Region{Lo: prog.MustLookup("critical_begin"), Hi: prog.MustLookup("critical_end")}

	for _, p := range []struct {
		name   string
		policy chex86.ContextPolicy
	}{
		{"always-on:  ", chex86.Always()},
		{"region only:", chex86.Only(critical)},
	} {
		cfg := chex86.DefaultConfig()
		cfg.Context = p.policy
		cfg.StopOnViolation = true
		res, err := chex86.Run(prog, cfg, 1)
		fmt.Printf("%s %s | injected checks %d | uop expansion %.3f\n",
			p.name, outcome(err), res.InjectedUops, res.UopExpansion())
	}
	// Output:
	// always-on:   out-of-bounds at rip=0x400048 (ea=0x10000260, pid=2) | injected checks 25613 | uop expansion 1.330
	// region only: out-of-bounds at rip=0x400048 (ea=0x10000260, pid=2) | injected checks 13 | uop expansion 1.001
}

// The §V-B observation: keyed by instruction address, the PIDs a
// pointer-reload site sees are predictable. The reload below visits each
// of 16 buffers 4 times before moving to the next, for 20 rounds: the
// "Batch + Stride" shape of Table II, which the reload probe classifies.
//
// The stride predictor is right within a batch and wrong at each batch
// boundary. Its 2-delta confirmation commits a new stride only when it
// sees the same delta twice in a row, and the deltas here run 0,0,0,+1, so
// the committed stride stays 0 and the predictor repeats the last PID: 960
// correct, and one wrong-pointer (PMAN) miss at each of the 319 boundaries
// after the first batch. The two P0AN misses are the first reload at each
// of the program's two pointer-reload sites, before its entry is trained.
func Example_aliaspredict() {
	const nBufs = 16
	b := chex86.NewProgramBuilder()
	g := chex86.GlobalBase
	b.Global("buftab", g, nBufs*8)
	b.Global("pbuftab", g+256, 8)
	b.Reloc(g+256, "buftab")

	b.Load(chex86.R8, chex86.RNone, int64(g+256))
	b.MovRI(chex86.R15, 0)
	b.Label("alloc")
	b.MovRI(chex86.RDI, 64)
	b.CallAddr(chex86.MallocEntry)
	b.StoreIdx(chex86.R8, chex86.R15, 8, 0, chex86.RAX)
	b.AddRI(chex86.R15, 1)
	b.CmpRI(chex86.R15, nBufs)
	b.Jcc(chex86.CondL, "alloc")

	b.MovRI(chex86.R12, 0) // round
	b.Label("round")
	b.MovRI(chex86.RSI, 0) // buffer index
	b.Label("buf")
	b.MovRI(chex86.R13, 0) // batch counter
	b.Label("batch")
	b.LoadIdx(chex86.RBX, chex86.R8, chex86.RSI, 8, 0) // the pointer reload
	b.Load(chex86.RDX, chex86.RBX, 0)
	b.AddRI(chex86.RDX, 1)
	b.Store(chex86.RBX, 0, chex86.RDX)
	b.AddRI(chex86.R13, 1)
	b.CmpRI(chex86.R13, 4)
	b.Jcc(chex86.CondL, "batch")
	b.AddRI(chex86.RSI, 1)
	b.CmpRI(chex86.RSI, nBufs)
	b.Jcc(chex86.CondL, "buf")
	b.AddRI(chex86.R12, 1)
	b.CmpRI(chex86.R12, 20)
	b.Jcc(chex86.CondL, "round")
	b.Hlt()
	prog := build(b)

	sim, err := chex86.NewSim(prog, chex86.DefaultConfig(), 1)
	if err != nil {
		log.Fatal(err)
	}
	col := patterns.NewCollector(0)
	sim.SetReloadHook(func(pc uint64, pid core.PID) { col.Observe(pc, pid) })
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}

	seq := col.Seq(prog.MustLookup("batch"))
	p := res.Predictor
	fmt.Printf("reloads:    %d, first PIDs %v\n", len(seq), seq[:12])
	fmt.Printf("classified: %s\n", patterns.Classify(seq))
	fmt.Printf("predictor:  %d correct of %d resolved, %.1f%% mispredict (PNA0 %d / P0AN %d / PMAN %d)\n",
		p.Correct, p.Correct+p.Mispredictions(), 100*p.MispredictionRate(), p.PNA0, p.P0AN, p.PMAN)
	// Output:
	// reloads:    1280, first PIDs [3 3 3 3 4 4 4 4 5 5 5 5]
	// classified: Batch + Stride (stride 1)
	// predictor:  960 correct of 1281 resolved, 25.1% mispredict (PNA0 0 / P0AN 2 / PMAN 319)
}

// The field-deployable defense of §I. A heap library XOR-encodes pointers
// at rest; the shipped Table I rules have no XOR row, so decoding clears
// the PID and an overflow through the decoded pointer goes unchecked. A
// microcode update that adds the XOR propagation rule to the rule database
// protects the same unmodified binary on its next run.
func Example_fieldupdate() {
	b := chex86.NewProgramBuilder()
	b.MovRI(chex86.RDI, 64)
	b.CallAddr(chex86.MallocEntry)
	b.MovRI(chex86.RCX, 0x5a5a5a5a) // key: runtime data the tracker cannot see through
	b.MovRR(chex86.RBX, chex86.RAX)
	b.Alu(isa.XOR, isa.RegOp(chex86.RBX), isa.RegOp(chex86.RCX)) // enc = ptr ^ key
	b.Alu(isa.XOR, isa.RegOp(chex86.RBX), isa.RegOp(chex86.RCX)) // ptr = enc ^ key
	b.MovRI(chex86.RDX, 0x41)
	b.Store(chex86.RBX, 64, chex86.RDX) // one past the end
	b.Hlt()
	prog := build(b)

	xor := tracker.Rule{
		Name: "XOR", Uop: isa.UAlu, Alu: isa.AluXor, HasAlu: true,
		Mode:      tracker.ModeRegReg,
		Example:   "xor %rcx, %rbx, %rax",
		Semantics: "if PID of one source is zero, assign the PID of the other source",
		CExample:  "ptr = enc ^ key;",
		Propagate: func(a, b core.PID) core.PID {
			if a == 0 {
				return b
			}
			return a
		},
	}
	for _, update := range []bool{false, true} {
		cfg := chex86.DefaultConfig()
		cfg.StopOnViolation = true
		sim, err := chex86.NewSim(prog, cfg, 1)
		if err != nil {
			log.Fatal(err)
		}
		if update {
			sim.DB.Add(xor)
		}
		_, err = sim.Run()
		fmt.Printf("XOR rule installed %-5v %s\n", update, outcome(err))
	}
	// Output:
	// XOR rule installed false no violation
	// XOR rule installed true  out-of-bounds at rip=0x40001c (ea=0x10000050, pid=1)
}
