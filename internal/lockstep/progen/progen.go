// Package progen is the seeded, deterministic guest-program generator
// behind the lockstep differential-fuzzing harness (internal/lockstep)
// and the security fuzz suite (internal/security). It generalizes the
// program-builder that used to live inline in the security fuzz test:
// programs allocate a handful of heap buffers and then perform a random
// walk of the register-level pointer flows Table I must follow — pointer
// copies, stack spills and reloads (alias records), in-bounds word/byte
// accesses, straight-line multi-dereference runs (loop-free hot blocks
// over one region), bounded pointer arithmetic, alloc/free churn, call
// trees deep enough to exercise the k=2 call-string context fold, and
// indirect calls and jump tables.
//
// A program is described by a Genome: a plain-data step list that is
// (a) derived deterministically from a seed via faultinject.DeriveSeed
// and an internal xorshift64 stream (no math/rand, no wall clock — the
// package passes chexvet with zero waivers), and (b) interpreted by
// Build with per-step validity guards, so *any* subset of the steps
// still builds a well-formed program. That second property is what makes
// ddmin-style shrinking trivial: the shrinker deletes steps and rebuilds.
//
// Genomes may optionally carry one injected memory-safety violation with
// a ground-truth label (out-of-bounds, use-after-free, double-free, or a
// dangling pointer reloaded from a stale stack spill). The generator
// guarantees the labeled violation is always present in the built
// program: if the step it was attached to is skipped (or shrunk away),
// the mutation is force-emitted before the epilogue.
package progen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"chex86/internal/asm"
	"chex86/internal/core"
	"chex86/internal/faultinject"
	"chex86/internal/heap"
	"chex86/internal/isa"
)

// Mutation labels the single memory-safety violation injected into an
// otherwise safe program ("" = none).
type Mutation string

const (
	MutNone          Mutation = ""
	MutOOB           Mutation = "oob"
	MutUAF           Mutation = "uaf"
	MutDoubleFree    Mutation = "double-free"
	MutDanglingSpill Mutation = "dangling-spill"
)

// Mutations lists the injectable violation classes.
func Mutations() []Mutation {
	return []Mutation{MutOOB, MutUAF, MutDoubleFree, MutDanglingSpill}
}

// Expect returns the violation class the always-on pipeline must report
// for a program carrying this mutation (the ground-truth label).
func (m Mutation) Expect() core.ViolationKind {
	switch m {
	case MutOOB:
		return core.VOutOfBounds
	case MutUAF, MutDanglingSpill:
		return core.VUseAfterFree
	case MutDoubleFree:
		return core.VDoubleFree
	}
	return core.VNone
}

// valid reports whether m is a known mutation label.
func (m Mutation) valid() bool {
	return m == MutNone || m.Expect() != core.VNone
}

// StepKind is the operation class of one genome step.
type StepKind uint8

const (
	// StepMove copies the buffer's pointer to another pointer register
	// (the MOV tracking rule), evicting the previous tenant if it can be
	// reloaded from its spill slot.
	StepMove StepKind = iota
	// StepSpill stores the pointer to the buffer's stack slot (ST rule:
	// alias record).
	StepSpill
	// StepReload loads the pointer back from its spill slot (LD rule).
	StepReload
	// StepAccess performs an in-bounds word/byte load or store through
	// the tracked pointer (or the out-of-bounds access when this is the
	// mutation step of an OOB genome).
	StepAccess
	// StepArith advances the pointer within bounds, stores through it,
	// and rewinds (ADD/SUB rules).
	StepArith
	// StepCall passes the pointer to a generated function tree (calls
	// nest Funcs deep — the k=2 context fold sees real call strings).
	StepCall
	// StepChurn frees the buffer and immediately reallocates it into the
	// same home register (allocation turnover: new PID, possibly reused
	// memory).
	StepChurn
	// StepRun performs a straight-line run of dereferences — several
	// loads/stores at consecutive word offsets through the tracked
	// pointer, all loop-free within one hot block over one region. It
	// gives check elision several adjacent sites in one block whose
	// proofs share a region, so each site's elide-or-keep decision and
	// the μop cache's multi-dereference expansion are diffed against the
	// reference together.
	StepRun
	// StepICall calls a generated function through a function pointer
	// materialized in a scratch register — an indirect CALL whose target
	// comes from a register, not the instruction. It exercises
	// indirect-target prediction, the live call-string fold across a
	// CALL the instruction word does not name, and the fail-closed
	// elision path: a program with an indirect branch carries no proofs,
	// so every check stays.
	StepICall
	// StepJumpTable dispatches through a stack-resident jump table: the
	// case handlers' addresses are stored to stack slots, the baked
	// selector's slot is loaded back, and an indirect JMP lands in one of
	// the case blocks, each of which accesses the buffer and rejoins.
	// Like StepICall it exercises indirect-target prediction and the
	// fail-closed elision path, here with the target loaded from memory
	// and several case blocks sharing one join.
	StepJumpTable

	numStepKinds
)

// Step is one operation of the generated random walk. All fields are
// baked at generation time; Build draws no randomness.
type Step struct {
	Kind StepKind `json:"k"`
	Buf  int      `json:"b"`
	// Dst is the target pointer-register index for StepMove, the
	// entry-function index for StepCall and StepICall, the dereference
	// count for StepRun, and the selected case index for StepJumpTable.
	Dst int `json:"d,omitempty"`
	// Off is the byte offset for StepAccess (8-aligned, past the end for
	// the OOB mutation step), the advance distance for StepArith, the
	// starting offset of a StepRun, and the case-block access offset of a
	// StepJumpTable.
	Off int64 `json:"o,omitempty"`
	// Flavor selects the access form for StepAccess: 0 word load,
	// 1 word store, 2 byte load, 3 byte store.
	Flavor uint8 `json:"f,omitempty"`
	// Mut marks the step the genome's mutation is attached to.
	Mut bool `json:"m,omitempty"`
}

// Options configures generation. Zero values select the defaults that
// match the historical security fuzz suite (4 buffers of 128 bytes,
// 40 steps, 3-deep call tree).
type Options struct {
	Steps    int
	Bufs     int
	BufBytes int64
	Funcs    int
	Mutation Mutation
}

// Genome is the plain-data description of one generated program. It
// marshals to deterministic JSON (fixed field order, no maps), which is
// what the corpus content-addresses and the campaign cache hashes.
type Genome struct {
	Seed     uint64   `json:"seed"`
	Bufs     int      `json:"bufs"`
	BufBytes int64    `json:"bufBytes"`
	Funcs    int      `json:"funcs"`
	Mutation Mutation `json:"mutation,omitempty"`
	Steps    []Step   `json:"steps"`
}

// pointerRegs is the pool the generator shuffles allocations through.
var pointerRegs = []isa.Reg{isa.RBX, isa.R12, isa.R13, isa.R14}

// maxSteps bounds genome size when loading untrusted corpus bytes.
const maxSteps = 1 << 16

// jtCases is the number of case handlers a StepJumpTable emits.
const jtCases = 3

// rng is a xorshift64 stream: deterministic, allocation-free, and
// explicitly seeded (chexvet forbids math/rand's global state here).
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) i63n(n int64) int64 { return int64(r.next() % uint64(n)) }

// Generate derives a genome deterministically from the seed: the same
// (seed, options) pair yields a byte-identical genome — and therefore a
// byte-identical program — in any process on any platform.
func Generate(seed uint64, opts Options) *Genome {
	g := &Genome{
		Seed:     seed,
		Bufs:     opts.Bufs,
		BufBytes: opts.BufBytes,
		Funcs:    opts.Funcs,
		Mutation: opts.Mutation,
	}
	if opts.Steps <= 0 {
		opts.Steps = 40
	}
	if g.Bufs <= 0 {
		g.Bufs = 4
	}
	if g.BufBytes <= 0 {
		g.BufBytes = 128
	}
	if opts.Funcs < 0 {
		g.Funcs = 0
	} else if opts.Funcs == 0 {
		g.Funcs = 3
	}
	g.normalize()

	r := newRNG(faultinject.DeriveSeed(seed, "progen", string(g.Mutation)))
	g.Steps = make([]Step, 0, opts.Steps)
	for len(g.Steps) < opts.Steps && len(g.Steps) < maxSteps {
		s := Step{Buf: r.intn(g.Bufs)}
		switch pick := r.intn(11); pick {
		case 0:
			s.Kind = StepMove
			s.Dst = r.intn(len(pointerRegs))
		case 1:
			s.Kind = StepSpill
		case 2:
			s.Kind = StepReload
		case 3, 4:
			s.Kind = StepAccess
			s.Off = 8 * r.i63n(g.BufBytes/8)
			if r.intn(4) == 0 {
				s.Flavor = uint8(2 + r.intn(2)) // byte access, rarer
			} else {
				s.Flavor = uint8(r.intn(2))
			}
		case 5:
			s.Kind = StepArith
			s.Off = 8 * r.i63n(4)
		case 6:
			if g.Funcs == 0 {
				s.Kind = StepAccess
				s.Off = 8 * r.i63n(g.BufBytes/8)
				s.Flavor = uint8(r.intn(2))
			} else {
				s.Kind = StepCall
				s.Dst = r.intn(g.Funcs)
			}
		case 7:
			s.Kind = StepChurn
		case 8:
			s.Kind = StepRun
			s.Dst = 2 + r.intn(3) // 2..4 consecutive words
			if words := g.BufBytes / 8; words > int64(s.Dst) {
				s.Off = 8 * r.i63n(words-int64(s.Dst)+1)
			}
		case 9:
			if g.Funcs == 0 {
				s.Kind = StepAccess
				s.Off = 8 * r.i63n(g.BufBytes/8)
				s.Flavor = uint8(r.intn(2))
			} else {
				s.Kind = StepICall
				s.Dst = r.intn(g.Funcs)
			}
		case 10:
			s.Kind = StepJumpTable
			s.Dst = r.intn(jtCases)
			s.Off = 8 * r.i63n(g.BufBytes/8)
		}
		g.Steps = append(g.Steps, s)
	}

	if g.Mutation != MutNone && len(g.Steps) > 0 {
		mi := r.intn(len(g.Steps))
		g.Steps[mi].Mut = true
		if g.Mutation == MutOOB {
			// Bake the out-of-bounds access into the step itself so Build
			// needs no randomness: an 8-aligned offset just past the end.
			g.Steps[mi].Kind = StepAccess
			g.Steps[mi].Off = g.BufBytes + 8*r.i63n(4)
			g.Steps[mi].Flavor = uint8(r.intn(2))
		}
	}
	return g
}

// normalize clamps genome parameters into the ranges Build supports.
// Generated genomes are always normal; genomes parsed from corpus files
// or fuzz inputs are sanitized here.
func (g *Genome) normalize() {
	if g.Bufs < 1 {
		g.Bufs = 1
	}
	if g.Bufs > len(pointerRegs) {
		g.Bufs = len(pointerRegs)
	}
	if g.BufBytes < 16 {
		g.BufBytes = 16
	}
	if g.BufBytes > 4096 {
		g.BufBytes = 4096
	}
	g.BufBytes &^= 7
	if g.Funcs < 0 {
		g.Funcs = 0
	}
	if g.Funcs > 8 {
		g.Funcs = 8
	}
	if !g.Mutation.valid() {
		g.Mutation = MutUAF
	}
	if len(g.Steps) > maxSteps {
		g.Steps = g.Steps[:maxSteps]
	}
	for i := range g.Steps {
		s := &g.Steps[i]
		if s.Kind >= numStepKinds {
			s.Kind = StepAccess
		}
		if s.Buf < 0 || s.Buf >= g.Bufs {
			s.Buf = 0
		}
		switch s.Kind {
		case StepMove:
			if s.Dst < 0 || s.Dst >= len(pointerRegs) {
				s.Dst = 0
			}
		case StepCall, StepICall:
			if g.Funcs == 0 {
				s.Kind = StepAccess
				s.Off = 0
				s.Flavor = 0
			} else if s.Dst < 0 || s.Dst >= g.Funcs {
				s.Dst = 0
			}
		case StepJumpTable:
			if s.Dst < 0 || s.Dst >= jtCases {
				s.Dst = 0
			}
		}
		switch s.Kind {
		case StepAccess:
			s.Flavor &= 3
			if s.Mut && g.Mutation == MutOOB {
				// Keep the offset out of bounds but near the end.
				ex := s.Off - g.BufBytes
				if ex < 0 || ex > 24 {
					ex = 0
				}
				s.Off = g.BufBytes + (ex &^ 7)
			} else if s.Off < 0 || s.Off >= g.BufBytes {
				s.Off = 0
			} else {
				s.Off &^= 7
			}
		case StepArith:
			if s.Off < 0 || s.Off > 24 {
				s.Off = 0
			}
			s.Off &^= 7
		case StepRun:
			if s.Dst < 2 {
				s.Dst = 2
			}
			if max := int(g.BufBytes / 8); s.Dst > max {
				s.Dst = max
			}
			s.Off &^= 7
			if s.Off < 0 || s.Off+8*int64(s.Dst) > g.BufBytes {
				s.Off = 0
			}
		case StepJumpTable:
			s.Off &^= 7
			if s.Off < 0 || s.Off >= g.BufBytes {
				s.Off = 0
			}
		}
	}
}

// Clone returns a deep copy of the genome.
func (g *Genome) Clone() *Genome {
	c := *g
	c.Steps = append([]Step(nil), g.Steps...)
	return &c
}

// CanonicalJSON renders the genome as deterministic bytes (fixed field
// order, no maps) for content addressing.
func (g *Genome) CanonicalJSON() []byte {
	data, err := json.Marshal(g)
	if err != nil {
		panic(fmt.Sprintf("progen: genome marshal: %v", err))
	}
	return data
}

// Hash returns the hex SHA-256 of the canonical JSON — the corpus
// content address.
func (g *Genome) Hash() string {
	sum := sha256.Sum256(g.CanonicalJSON())
	return hex.EncodeToString(sum[:])
}

// ParseGenome decodes and sanitizes a genome from corpus or fuzz bytes.
func ParseGenome(data []byte) (*Genome, error) {
	var g Genome
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("progen: parse genome: %w", err)
	}
	g.normalize()
	return &g, nil
}

// slotFor is buffer i's stack spill slot (below any nested return
// addresses: calls reach at most ~6 deep, well above -64).
func slotFor(i int) int64 { return int64(-64 - 16*i) }

// Build interprets the genome into an executable program. It is fully
// deterministic — every operand was baked at generation time — and every
// step is guarded by the current emission state (buffer freed? pointer
// reloadable?), so deleting arbitrary steps still yields a well-formed
// program. A genome with a mutation always emits it: if the flagged step
// never fires, the violation is forced before the epilogue.
func (g *Genome) Build() (*asm.Program, error) {
	g.normalize()
	b := asm.NewBuilder()

	// Prologue: allocate the buffers; each pointer lands in its home
	// register.
	for i := 0; i < g.Bufs; i++ {
		b.MovRI(isa.RDI, g.BufBytes)
		b.CallAddr(heap.MallocEntry)
		b.MovRR(pointerRegs[i], isa.RAX)
	}

	// home[i] = register currently holding buffer i's pointer.
	home := make([]isa.Reg, g.Bufs)
	copy(home, pointerRegs)
	// spilled[i] = stack slot holding buffer i's pointer, or 0.
	spilled := make([]int64, g.Bufs)
	freed := make([]bool, g.Bufs)

	// freeReg returns a pointer register no buffer currently lives in.
	freeReg := func() isa.Reg {
		for _, r := range pointerRegs {
			used := false
			for j := range home {
				if home[j] == r {
					used = true
					break
				}
			}
			if !used {
				return r
			}
		}
		return isa.RNone
	}
	// ensureHome reloads buffer i's pointer from its spill slot if it
	// lost its register; reports whether the pointer is usable.
	ensureHome := func(i int) bool {
		if home[i] != isa.RNone {
			return true
		}
		r := freeReg()
		if r == isa.RNone || spilled[i] == 0 {
			return false
		}
		b.Load(r, isa.RSP, spilled[i])
		home[i] = r
		return true
	}

	// emitMutation injects the genome's temporal mutation on buffer i
	// (OOB is baked into its access step instead).
	emitMutation := func(i int) {
		switch g.Mutation {
		case MutUAF:
			b.MovRR(isa.RDI, home[i])
			b.CallAddr(heap.FreeEntry)
			freed[i] = true
			b.Load(isa.RDX, home[i], 0) // read through the dangling pointer
		case MutDoubleFree:
			b.MovRR(isa.RDI, home[i])
			b.CallAddr(heap.FreeEntry)
			freed[i] = true
			b.MovRR(isa.RDI, home[i])
			b.CallAddr(heap.FreeEntry)
		case MutDanglingSpill:
			// Spill the pointer, free the buffer, destroy the register
			// copy, reload the now-dangling pointer from the stale spill
			// slot (the alias record must resurrect the freed PID's tag),
			// and dereference it.
			slot := slotFor(i)
			b.Store(isa.RSP, slot, home[i])
			spilled[i] = slot
			b.MovRR(isa.RDI, home[i])
			b.CallAddr(heap.FreeEntry)
			freed[i] = true
			b.MovRI(home[i], 0)
			b.Load(home[i], isa.RSP, slot)
			b.Load(isa.RDX, home[i], 0)
		}
	}

	emitAccess := func(i int, s *Step) {
		switch s.Flavor {
		case 0:
			b.Load(isa.RDX, home[i], s.Off)
		case 1:
			b.MovRI(isa.RDX, s.Off)
			b.Store(home[i], s.Off, isa.RDX)
		case 2:
			b.LoadB(isa.RDX, home[i], s.Off)
		default:
			b.MovRI(isa.RDX, 0x5A)
			b.StoreB(home[i], s.Off, isa.RDX)
		}
	}

	mutFired := g.Mutation == MutNone
	for si := range g.Steps {
		s := &g.Steps[si]
		i := s.Buf
		if freed[i] || !ensureHome(i) {
			continue
		}
		if s.Mut && !mutFired && g.Mutation != MutOOB {
			emitMutation(i)
			mutFired = true
			continue
		}
		switch s.Kind {
		case StepMove:
			dst := pointerRegs[s.Dst]
			if dst == home[i] {
				break
			}
			// Only evict a buffer that can be reloaded from its spill
			// slot.
			ok := true
			for j := range home {
				if home[j] == dst && spilled[j] == 0 {
					ok = false
				}
			}
			if !ok {
				break
			}
			for j := range home {
				if home[j] == dst {
					home[j] = isa.RNone
				}
			}
			b.MovRR(dst, home[i])
			home[i] = dst
		case StepSpill:
			slot := slotFor(i)
			b.Store(isa.RSP, slot, home[i])
			spilled[i] = slot
		case StepReload:
			if spilled[i] == 0 {
				break
			}
			b.Load(home[i], isa.RSP, spilled[i])
		case StepAccess:
			emitAccess(i, s)
			if s.Mut && g.Mutation == MutOOB {
				mutFired = true
			}
		case StepArith:
			b.AddRI(home[i], s.Off)
			b.MovRI(isa.RDX, 1)
			b.Store(home[i], 0, isa.RDX) // still inside the buffer
			b.SubRI(home[i], s.Off)
		case StepCall:
			b.MovRR(isa.RDI, home[i])
			b.Call(fnLabel(s.Dst))
		case StepChurn:
			b.MovRR(isa.RDI, home[i])
			b.CallAddr(heap.FreeEntry)
			b.MovRI(isa.RDI, g.BufBytes)
			b.CallAddr(heap.MallocEntry)
			b.MovRR(home[i], isa.RAX)
			spilled[i] = 0 // the old spill slot now holds a dangling pointer
		case StepRun:
			// Loop-free multi-dereference run: alternating loads and
			// stores at consecutive word offsets, all in one hot block.
			for w := 0; w < s.Dst; w++ {
				off := s.Off + 8*int64(w)
				if w%2 == 0 {
					b.Load(isa.RDX, home[i], off)
				} else {
					b.MovRI(isa.RDX, off)
					b.Store(home[i], off, isa.RDX)
				}
			}
		case StepICall:
			// Function-pointer call: the target is materialized in a
			// scratch register, so the CALL's target comes from RCX, not
			// the instruction word.
			b.MovRR(isa.RDI, home[i])
			b.MovLabel(isa.RCX, fnLabel(s.Dst))
			b.CallReg(isa.RCX)
		case StepJumpTable:
			// Stack-resident jump table: write every case handler's
			// address to its slot, load the baked selector's entry back,
			// and dispatch through the register. Each case accesses the
			// buffer and rejoins via a direct jump.
			for k := 0; k < jtCases; k++ {
				b.MovLabel(isa.RCX, jtCase(si, k))
				b.Store(isa.RSP, jtSlot(k), isa.RCX)
			}
			b.Load(isa.RCX, isa.RSP, jtSlot(s.Dst))
			b.JmpReg(isa.RCX)
			for k := 0; k < jtCases; k++ {
				b.Label(jtCase(si, k))
				if k%2 == 0 {
					b.Load(isa.RDX, home[i], s.Off)
				} else {
					b.MovRI(isa.RDX, s.Off)
					b.Store(home[i], s.Off, isa.RDX)
				}
				b.Jmp(jtJoin(si))
			}
			b.Label(jtJoin(si))
		}
	}

	if !mutFired {
		// The flagged step never fired (unusable buffer, or it was shrunk
		// away); force the mutation on the last usable buffer so the
		// ground-truth label always holds.
		lastUsable := -1
		for i := range home {
			if !freed[i] && ensureHome(i) {
				lastUsable = i
			}
		}
		if lastUsable < 0 {
			return nil, fmt.Errorf("progen: no usable buffer to emit %q mutation", g.Mutation)
		}
		if g.Mutation == MutOOB {
			b.Load(isa.RDX, home[lastUsable], g.BufBytes)
		} else {
			emitMutation(lastUsable)
		}
	}

	// Epilogue: free what's still live, halt, then the call-tree bodies.
	for i := 0; i < g.Bufs; i++ {
		if freed[i] || !ensureHome(i) {
			continue
		}
		b.MovRR(isa.RDI, home[i])
		b.CallAddr(heap.FreeEntry)
	}
	b.Hlt()

	// fn<j> reads and writes through the pointer argument in RDI at an
	// in-bounds offset and calls the next function down, so a StepCall
	// exercises tag propagation across real call strings (depth up to
	// Funcs, beyond the k=2 fold).
	for j := 0; j < g.Funcs; j++ {
		off := (8 * int64(j)) % g.BufBytes
		b.Label(fnLabel(j))
		b.Load(isa.RDX, isa.RDI, off)
		if j+1 < g.Funcs {
			b.Call(fnLabel(j + 1))
		}
		b.Store(isa.RDI, off, isa.RDX)
		b.Ret()
	}
	return b.Build()
}

func fnLabel(j int) string { return fmt.Sprintf("fn%d", j) }

// jtSlot is case handler k's jump-table stack slot, placed below the
// spill slots and the deepest nested return addresses.
func jtSlot(k int) int64 { return int64(-192 - 8*k) }

func jtCase(si, k int) string { return fmt.Sprintf("jt%d_case%d", si, k) }

func jtJoin(si int) string { return fmt.Sprintf("jt%d_join", si) }

// ProgramDigest builds the genome and returns the hex SHA-256 of the
// emitted instruction stream — the "golden bytes" witness the
// determinism tests pin: the same seed must produce this exact program
// in any process on any platform.
func (g *Genome) ProgramDigest() (string, error) {
	prog, err := g.Build()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "base=%#x\n", prog.TextBase)
	for i := range prog.Insts {
		in := &prog.Insts[i]
		fmt.Fprintf(h, "%d %d %+v %+v %#x %#x %d\n", in.Op, in.Cond, in.Dst, in.Src, in.Target, in.Addr, in.EncLen)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
