// Package workload synthesizes the guest programs standing in for the
// paper's SPEC CPU2017 and PARSEC 2.1 C/C++ benchmarks. Each profile
// parameterizes a common program skeleton — allocate a working set, visit
// buffers per a temporal pointer-access schedule (Table II), sweep or
// pointer-chase each buffer, interleave data-dependent branches, compute,
// pointer spills/reloads, and allocation churn — to match the published
// workload features the paper's results depend on: allocation behavior
// (Figure 3), pointer intensity, reload frequency, pattern mix, and branch
// and FP character. Absolute instruction counts are scaled down (see
// DESIGN.md §2); the ratios are preserved.
package workload

import (
	"fmt"
	"math/rand"

	"chex86/internal/asm"
	"chex86/internal/heap"
	"chex86/internal/isa"
	"chex86/internal/mem"
	"chex86/internal/patterns"
)

// chaseNodeBytes is the spacing of chase-list nodes within a buffer.
const chaseNodeBytes = 64

// gcd returns the greatest common divisor of a and b.
func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// PatternSpec weights one Table II pattern kind in a profile's visit
// schedule.
type PatternSpec struct {
	Kind   patterns.Kind
	Visits int // schedule length per round for this pattern
}

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name  string
	Suite string // "SPEC CPU2017" or "PARSEC 2.1"
	About string // one-line characterization for reports

	Threads       int
	MaxLive       int    // live buffer table size
	ChurnPerRound int    // buffers freed+reallocated per round
	Rounds        int    // outer iterations
	AllocSize     uint64 // buffer size in bytes (multiple of 8)
	SweepLen      int    // words touched per visit (capped at AllocSize/8)
	Chase         bool   // pointer-chase instead of indexed sweep
	ChaseLen      int    // chase steps per visit
	ComputeOps    int    // register-only ALU ops per visit
	InnerCompute  int    // register-only ops per sweep element / chase hop
	FPRatio       float64
	NoiseBranches int // data-dependent branches per visit
	SpillEvery    int // spill/reload call every N visits (0 = never)
	PhaseWindow   int // working-subset size for random-flavored patterns (0 = 96)
	Patterns      []PatternSpec
}

// SetupInsts estimates the macro-op count of the allocation/initialization
// phase across all threads, for SimPoint-style warmup exclusion.
func (p *Profile) SetupInsts() uint64 {
	perBuffer := uint64(8) // size compute + call + store + loop overhead
	if p.Chase {
		nodes := p.AllocSize / chaseNodeBytes
		perBuffer += nodes * 9
	} else {
		sweep := uint64(p.SweepLen)
		words := p.AllocSize / 8
		if sweep == 0 || sweep > words {
			sweep = words
		}
		perBuffer += sweep * 4
	}
	return uint64(p.MaxLive)*perBuffer*5/4 + 64
}

// TotalAllocs returns the total allocations the profile performs.
func (p *Profile) TotalAllocs() int {
	return p.MaxLive + p.Rounds*p.ChurnPerRound
}

// VisitsPerRound returns the schedule length per round.
func (p *Profile) VisitsPerRound() int {
	n := 0
	for _, ps := range p.Patterns {
		n += ps.Visits
	}
	return n
}

// gen carries program-generation state.
type gen struct {
	b      *asm.Builder
	p      *Profile
	rng    *rand.Rand
	nextGA uint64 // global-data bump pointer
	labelN int
}

func (g *gen) global(name string, size uint64) uint64 {
	addr := g.nextGA
	g.nextGA += (size + 15) &^ 15
	g.b.Global(name, addr, size)
	return addr
}

// pool creates an 8-byte constant-pool slot holding the address of target,
// with a relocation entry so the loader (and CHEx86's alias-table seeding)
// knows it contains a pointer.
func (g *gen) pool(name, target string) uint64 {
	addr := g.global(name, 8)
	g.b.Reloc(addr, target)
	return addr
}

func (g *gen) label(prefix string) string {
	g.labelN++
	return fmt.Sprintf("%s_%d", prefix, g.labelN)
}

// schedule produces the buffer-index visit order for one pattern kind over
// live-table indexes [lo, hi).
func (g *gen) schedule(kind patterns.Kind, lo, hi, visits int) []int {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	idx := func(i int) int { return lo + ((i%n)+n)%n }
	// Random-flavored patterns draw from a phase window rather than the
	// whole live table: programs touch a working subset of their live
	// allocations in any interval (the Figure 3 "allocations in use"
	// observation), which is what makes a 64-entry capability cache
	// effective despite thousands of live allocations.
	window := g.p.PhaseWindow
	if window <= 0 {
		window = 96
	}
	if window > n {
		window = n
	}
	wbase := 0
	if n > window {
		wbase = g.rng.Intn(n - window)
	}
	widx := func(i int) int { return lo + wbase + ((i%window)+window)%window }
	out := make([]int, 0, visits)
	switch kind {
	case patterns.Constant:
		c := idx(g.rng.Intn(n))
		for i := 0; i < visits; i++ {
			out = append(out, c)
		}
	case patterns.Stride:
		start := g.rng.Intn(n)
		for i := 0; i < visits; i++ {
			out = append(out, idx(start+i))
		}
	case patterns.BatchStride:
		const batch = 4
		start := g.rng.Intn(n)
		for i := 0; i < visits; i++ {
			out = append(out, idx(start+i/batch))
		}
	case patterns.BatchNoStride:
		const batch = 4
		cur := widx(g.rng.Intn(window))
		for i := 0; i < visits; i++ {
			if i%batch == 0 {
				cur = widx(g.rng.Intn(window))
			}
			out = append(out, cur)
		}
	case patterns.RepeatStride:
		start := g.rng.Intn(n)
		for i := 0; i < visits; i++ {
			out = append(out, idx(start+i%3))
		}
	case patterns.RepeatNoStride:
		h := []int{widx(g.rng.Intn(window)), widx(g.rng.Intn(window)), widx(g.rng.Intn(window))}
		for i := 0; i < visits; i++ {
			out = append(out, h[i%3])
		}
	case patterns.RandomStride:
		cur := g.rng.Intn(window)
		for i := 0; i < visits; i++ {
			if g.rng.Float64() < 0.7 {
				cur++
			} else {
				cur = g.rng.Intn(window)
			}
			out = append(out, widx(cur))
		}
	default: // RandomNoStride
		for i := 0; i < visits; i++ {
			out = append(out, widx(g.rng.Intn(window)))
		}
	}
	return out
}

// Build assembles the profile into a guest program. scale multiplies the
// round count (use <1 for quick tests, 1 for the paper harness).
func (p *Profile) Build(scale float64) (*asm.Program, error) {
	prof := *p // copy: scaling must not mutate the catalog
	if scale > 0 && scale != 1 {
		prof.Rounds = int(float64(prof.Rounds)*scale + 0.5)
		if prof.Rounds < 1 {
			prof.Rounds = 1
		}
	}
	threads := prof.Threads
	if threads <= 0 {
		threads = 1
	}

	g := &gen{
		b:      asm.NewBuilder(),
		p:      &prof,
		rng:    rand.New(rand.NewSource(int64(len(prof.Name))*7919 + 42)),
		nextGA: mem.GlobalBase,
	}
	b := g.b

	// Shared globals.
	g.global("buftab", uint64(prof.MaxLive)*8)
	g.pool("pbuftab", "buftab")
	noiseLen := 256
	noise := g.global("noise", uint64(noiseLen)*8)
	g.pool("pnoise", "noise")
	// Noise words are biased taken ~25% of the time: realistic hard
	// branches are skewed, not uniform coin flips.
	for i := 0; i < noiseLen; i++ {
		v := uint64(0)
		if g.rng.Intn(4) == 0 {
			v = 1
		}
		b.DataU64(noise+uint64(i)*8, v)
	}

	// Per-thread visit schedules as initialized globals.
	scheds := make([][]schedGlobal, threads)
	for t := 0; t < threads; t++ {
		lo := t * prof.MaxLive / threads
		hi := (t + 1) * prof.MaxLive / threads
		for pi, ps := range prof.Patterns {
			name := fmt.Sprintf("visits_t%d_p%d", t, pi)
			sched := g.schedule(ps.Kind, lo, hi, ps.Visits)
			addr := g.global(name, uint64(len(sched))*8)
			g.pool("p"+name, name)
			for i, v := range sched {
				b.DataU64(addr+uint64(i)*8, uint64(v))
			}
			scheds[t] = append(scheds[t], schedGlobal{addr: addr, n: len(sched)})
		}
	}

	for t := 0; t < threads; t++ {
		g.emitThread(t, threads, scheds[t])
	}
	return b.Build()
}

// MustBuild builds or panics (profiles are static).
func (p *Profile) MustBuild(scale float64) *asm.Program {
	prog, err := p.Build(scale)
	if err != nil {
		panic(err)
	}
	return prog
}

// initBuffer emits code initializing the freshly allocated buffer whose
// pointer is in ptr: chase profiles build a circular in-buffer chain of
// node pointers (spilling pointer aliases into the heap); sweep profiles
// zero-fill with integers (clearing any stale aliases from recycled
// memory).
func (g *gen) initBuffer(ptr isa.Reg) {
	b := g.b
	p := g.p
	if g.p.Chase {
		// Chain nodes are 64-B cache lines linked with a 7-line stride
		// (a full cycle, since gcd(7, nodes)=1 for our power-of-two node
		// counts): successive hops land far apart, so the traversal
		// defeats next-line prefetching the way real pointer chasing does.
		nodes := int64(p.AllocSize / chaseNodeBytes)
		if nodes < 4 {
			panic(fmt.Sprintf("workload %s: chase AllocSize %d holds fewer than 4 %d-byte nodes",
				p.Name, p.AllocSize, chaseNodeBytes))
		}
		span := nodes * chaseNodeBytes
		// The link stride (in nodes) must be coprime with the node count
		// so the chain is a single cycle, and smaller than the span so a
		// single conditional subtraction wraps it.
		strideNodes := int64(7)
		if nodes <= 8 {
			strideNodes = 3
		}
		if gcd(strideNodes, nodes) != 1 {
			panic(fmt.Sprintf("workload %s: chain stride %d not coprime with %d nodes", p.Name, strideNodes, nodes))
		}
		chain := g.label("chain")
		nowrap := g.label("nowrap")
		b.MovRI(isa.RCX, 0) // current node offset
		b.Label(chain)
		b.MovRR(isa.RSI, isa.RCX)
		b.AddRI(isa.RSI, strideNodes*chaseNodeBytes)
		b.CmpRI(isa.RSI, span)
		b.Jcc(isa.CondL, nowrap)
		b.SubRI(isa.RSI, span)
		b.Label(nowrap)
		b.Lea(isa.RDX, isa.MemOpIdx(ptr, isa.RSI, 1, 0)) // &next node
		b.StoreIdx(ptr, isa.RCX, 1, 0, isa.RDX)          // cur->next = next
		b.MovRR(isa.RCX, isa.RSI)
		b.CmpRI(isa.RCX, 0)
		b.Jcc(isa.CondNE, chain) // the cycle closes back at offset 0
		return
	}
	// Sweep buffers: initialize exactly the words the visits load, which
	// also clears any stale alias entries left in recycled chunks.
	words := int64(p.AllocSize / 8)
	sweep := int64(p.SweepLen)
	if sweep <= 0 || sweep > words {
		sweep = words
	}
	init := g.label("init")
	b.MovRI(isa.RCX, 0)
	b.Label(init)
	b.StoreIdx(ptr, isa.RCX, 8, 0, isa.RCX)
	b.AddRI(isa.RCX, 1)
	b.CmpRI(isa.RCX, sweep)
	b.Jcc(isa.CondL, init)
}

// schedGlobal locates one pattern's visit schedule in global data.
type schedGlobal struct {
	addr uint64
	n    int
}

// emitThread generates one hart's code. Thread t owns buftab indexes
// [t*L/T, (t+1)*L/T).
func (g *gen) emitThread(t, threads int, scheds []schedGlobal) {
	b := g.b
	p := g.p
	lo := int64(t * p.MaxLive / threads)
	hi := int64((t + 1) * p.MaxLive / threads)

	b.Label(fmt.Sprintf("thread%d", t))

	// Load the constant-pool pointers (PC-relative constant loads in real
	// x86; the relocation entries let the tracker tag them).
	b.Load(isa.R8, isa.RNone, int64(g.poolAddr("pbuftab"))) // R8 = &buftab
	b.Load(isa.R10, isa.RNone, int64(g.poolAddr("pnoise"))) // R10 = &noise

	// --- Allocation phase: populate this thread's buftab slice. ---
	alloc := g.label("alloc")
	b.MovRI(isa.R15, lo)
	b.Label(alloc)
	g.emitAllocSize(isa.R15)
	b.CallAddr(heap.MallocEntry)
	b.StoreIdx(isa.R8, isa.R15, 8, 0, isa.RAX)
	g.initBuffer(isa.RAX)
	b.AddRI(isa.R15, 1)
	b.CmpRI(isa.R15, hi)
	b.Jcc(isa.CondL, alloc)

	// Spill/reload worker: spills the live pointer registers across a call.
	worker := fmt.Sprintf("worker%d", t)
	afterWorker := g.label("afterworker")
	b.Jmp(afterWorker)
	b.Label(worker)
	// Functions repeatedly spill and reload the pointer they work on;
	// those repeated same-PID reloads dominate real reload volume (the
	// paper measures ~2.5% of memory references, highly predictable).
	for i := 0; i < 4; i++ {
		b.Push(isa.RBX)
		b.Push(isa.R11)
		b.AddRI(isa.R11, 3)
		b.Alu(isa.XOR, isa.RegOp(isa.R11), isa.RegOp(isa.RDX))
		b.Pop(isa.R11)
		b.Pop(isa.RBX)
	}
	b.Ret()
	b.Label(afterWorker)

	// --- Main rounds. ---
	b.MovRI(isa.R12, 0) // round counter
	round := g.label("round")
	b.Label(round)

	visitCount := 0
	for pi, sg := range scheds {
		if sg.n == 0 {
			continue
		}
		// R9 = &visits for this pattern.
		b.Load(isa.R9, isa.RNone, int64(g.poolAddr(fmt.Sprintf("pvisits_t%d_p%d", t, pi))))
		loop := g.label("visit")
		b.MovRI(isa.R13, 0)
		b.Label(loop)
		b.LoadIdx(isa.RSI, isa.R9, isa.R13, 8, 0) // idx = visits[r13]
		b.LoadIdx(isa.RBX, isa.R8, isa.RSI, 8, 0) // ptr = buftab[idx] (pointer reload)
		g.emitVisitBody(t, visitCount)
		visitCount++
		b.AddRI(isa.R13, 1)
		b.CmpRI(isa.R13, int64(sg.n))
		b.Jcc(isa.CondL, loop)
	}

	// --- Allocation churn. ---
	if p.ChurnPerRound > 0 {
		churn := g.label("churn")
		b.MovRI(isa.RCX, 0)
		b.MovRI(isa.R14, lo) // churn cursor (restarts every round for locality)
		b.Label(churn)
		b.Push(isa.RCX)
		b.LoadIdx(isa.RDI, isa.R8, isa.R14, 8, 0) // old pointer
		b.CallAddr(heap.FreeEntry)
		g.emitAllocSize(isa.R14)
		b.CallAddr(heap.MallocEntry)
		b.StoreIdx(isa.R8, isa.R14, 8, 0, isa.RAX)
		g.initBuffer(isa.RAX)
		b.AddRI(isa.R14, 1)
		b.CmpRI(isa.R14, hi)
		skip := g.label("churnwrap")
		b.Jcc(isa.CondL, skip)
		b.MovRI(isa.R14, lo)
		b.Label(skip)
		b.Pop(isa.RCX)
		b.AddRI(isa.RCX, 1)
		b.CmpRI(isa.RCX, int64(p.ChurnPerRound))
		b.Jcc(isa.CondL, churn)
	}

	b.AddRI(isa.R12, 1)
	b.CmpRI(isa.R12, int64(p.Rounds))
	b.Jcc(isa.CondL, round)

	// --- Teardown: free the working set. ---
	freeAll := g.label("freeall")
	b.MovRI(isa.R15, lo)
	b.Label(freeAll)
	b.LoadIdx(isa.RDI, isa.R8, isa.R15, 8, 0)
	b.CallAddr(heap.FreeEntry)
	b.AddRI(isa.R15, 1)
	b.CmpRI(isa.R15, hi)
	b.Jcc(isa.CondL, freeAll)
	b.Hlt()
}

// emitVisitBody emits the per-visit work: buffer access (sweep or chase),
// data-dependent branches, register compute, and periodic spill/reload.
func (g *gen) emitVisitBody(t, visitIdx int) {
	b := g.b
	p := g.p

	// Buffer access.
	if p.Chase {
		steps := p.ChaseLen
		if steps <= 0 {
			steps = 8
		}
		chase := g.label("chase")
		b.MovRI(isa.RCX, int64(steps))
		b.Label(chase)
		// Touch the node payload before following the chain: real list
		// traversals read node data, so pointer reloads are a fraction of
		// the loads, not all of them.
		b.Load(isa.RDX, isa.RBX, 8)
		b.AddRR(isa.R11, isa.RDX)
		b.Load(isa.RDX, isa.RBX, 16)
		b.Alu(isa.XOR, isa.RegOp(isa.R11), isa.RegOp(isa.RDX))
		b.Load(isa.RBX, isa.RBX, 0) // follow the in-buffer chain
		g.emitInnerCompute()
		b.SubRI(isa.RCX, 1)
		b.CmpRI(isa.RCX, 0)
		b.Jcc(isa.CondG, chase)
	} else {
		words := int64(p.AllocSize / 8)
		sweep := int64(p.SweepLen)
		if sweep <= 0 || sweep > words {
			sweep = words
		}
		// The sweep roves through the buffer from a per-visit offset so the
		// whole allocation is live working set, not just its first bytes.
		mask := int64(0)
		if room := words - sweep; room > 0 {
			mask = 1
			for mask*2 <= room+1 {
				mask *= 2
			}
			mask--
		}
		loop := g.label("sweep")
		b.MovRR(isa.RSI, isa.R13)
		b.Alu(isa.IMUL, isa.RegOp(isa.RSI), isa.ImmOp(sweep))
		b.Alu(isa.AND, isa.RegOp(isa.RSI), isa.ImmOp(mask))
		b.MovRR(isa.RCX, isa.RSI)
		b.AddRI(isa.RSI, sweep) // rsi = sweep limit
		b.Label(loop)
		b.LoadIdx(isa.RDX, isa.RBX, isa.RCX, 8, 0)
		b.AddRI(isa.RDX, 3)
		g.emitInnerCompute()
		b.StoreIdx(isa.RBX, isa.RCX, 8, 0, isa.RDX)
		b.AddRI(isa.RCX, 1)
		b.CmpRR(isa.RCX, isa.RSI)
		b.Jcc(isa.CondL, loop)
	}

	// Data-dependent branch noise.
	for nb := 0; nb < p.NoiseBranches; nb++ {
		skip := g.label("noise")
		b.MovRR(isa.RDX, isa.R13)
		b.Alu(isa.IMUL, isa.RegOp(isa.RDX), isa.ImmOp(31))
		b.AddRR(isa.RDX, isa.R12)
		b.Alu(isa.AND, isa.RegOp(isa.RDX), isa.ImmOp(255))
		b.LoadIdx(isa.RDX, isa.R10, isa.RDX, 8, 0)
		b.Alu(isa.AND, isa.RegOp(isa.RDX), isa.ImmOp(1))
		b.Jcc(isa.CondE, skip)
		b.AddRI(isa.R11, 1)
		b.Label(skip)
	}

	// Register-only compute.
	nFP := int(float64(p.ComputeOps) * p.FPRatio)
	for ci := 0; ci < p.ComputeOps; ci++ {
		switch {
		case ci < nFP && ci%2 == 0:
			b.Alu(isa.FADD, isa.RegOp(isa.R11), isa.RegOp(isa.RDX))
		case ci < nFP:
			b.Alu(isa.FMUL, isa.RegOp(isa.R11), isa.ImmOp(3))
		case ci%3 == 0:
			b.Alu(isa.XOR, isa.RegOp(isa.R11), isa.RegOp(isa.RDX))
		case ci%3 == 1:
			b.AddRI(isa.R11, 7)
		default:
			b.Alu(isa.SHR, isa.RegOp(isa.R11), isa.ImmOp(1))
		}
	}

	// Periodic pointer spill/reload across a call.
	if p.SpillEvery > 0 && visitIdx%p.SpillEvery == 0 {
		b.Call(fmt.Sprintf("worker%d", t))
	}
}

// emitInnerCompute emits the per-element register work interleaved with
// buffer accesses (real kernels compute on every element; without this,
// check density per instruction is far above the real benchmarks').
func (g *gen) emitInnerCompute() {
	b := g.b
	p := g.p
	nFP := int(float64(p.InnerCompute) * p.FPRatio)
	// Alternate between two accumulators: real kernels carry instruction-
	// level parallelism, so the per-element work must not collapse into a
	// single serial dependence chain.
	accs := [2]isa.Reg{isa.R11, isa.RBP}
	for i := 0; i < p.InnerCompute; i++ {
		acc := accs[i%2]
		switch {
		case i < nFP && i%2 == 0:
			b.Alu(isa.FMUL, isa.RegOp(acc), isa.ImmOp(5))
		case i < nFP:
			b.Alu(isa.FADD, isa.RegOp(acc), isa.RegOp(isa.RDX))
		case i%3 == 0:
			b.Alu(isa.XOR, isa.RegOp(acc), isa.RegOp(isa.RDX))
		case i%3 == 1:
			b.AddRI(acc, 13)
		default:
			b.Alu(isa.SHR, isa.RegOp(acc), isa.ImmOp(1))
		}
	}
}

// emitAllocSize computes this slot's allocation size into %rdi: the base
// size plus a per-slot jitter of up to 7 cache lines. Real allocators see
// varied sizes; without jitter, equal-sized chunks land at pathologically
// aligned addresses and alias in the cache sets.
func (g *gen) emitAllocSize(slot isa.Reg) {
	b := g.b
	b.MovRR(isa.RDI, slot)
	b.Alu(isa.AND, isa.RegOp(isa.RDI), isa.ImmOp(7))
	b.Alu(isa.SHL, isa.RegOp(isa.RDI), isa.ImmOp(6))
	b.AddRI(isa.RDI, int64(g.p.AllocSize))
}

// poolAddr returns the address of a previously created constant-pool slot.
func (g *gen) poolAddr(name string) uint64 {
	for _, gl := range g.globalsSnapshot() {
		if gl.Name == name {
			return gl.Addr
		}
	}
	panic("workload: unknown pool " + name)
}

// globalsSnapshot exposes the builder's registered globals (build-time
// introspection for pool address resolution).
func (g *gen) globalsSnapshot() []asm.Global {
	return g.b.Globals()
}
