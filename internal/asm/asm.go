// Package asm provides a small label-resolving assembler used to build
// guest programs for the simulator. Workload generators and the security
// exploit suites construct their guest code through this builder.
//
// The builder produces a Program: a contiguous sequence of isa.Inst values
// laid out at virtual addresses starting at the text base, with direct
// branch targets resolved from symbolic labels.
package asm

import (
	"fmt"
	"sort"

	"chex86/internal/isa"
)

// DefaultTextBase is the load address of program text, mirroring the
// conventional x86-64 small-code-model layout.
const DefaultTextBase = 0x400000

// avgEncLen is the synthetic encoded length assigned to instructions for
// I-cache modeling. Real x86 averages ~3.7 bytes per instruction; we use 4.
const avgEncLen = 4

// Program is an assembled guest program.
type Program struct {
	TextBase uint64
	Insts    []isa.Inst
	Labels   map[string]uint64 // label -> resolved virtual address

	// Globals lists symbol-table entries (global data objects) that the OS
	// loader hands to CHEx86 at program load so the shadow capability table
	// can be initialized with a capability per global (Section IV-C).
	Globals []Global

	// Relocs lists data relocations applied by the loader.
	Relocs []Reloc

	// Data lists initialized data words applied by the loader.
	Data []DataInit

	byAddr map[uint64]int // address -> instruction index
}

// Global is a symbol-table entry for a global data object. ReadOnly marks
// .rodata objects: the loader grants their capabilities no write
// permission, so stray writes are flagged as permission violations.
type Global struct {
	Name     string
	Addr     uint64
	Size     uint64
	ReadOnly bool
}

// DataInit is an initialized 8-byte data word the loader writes at program
// load (the guest image's .data contents).
type DataInit struct {
	Addr uint64
	Val  uint64
}

// Reloc is a data relocation: the loader writes the address of the target
// global into the 8-byte slot at Slot. Relocation entries are the "limited
// source-level symbol information" that lets CHEx86 track global addresses
// materialized through constant pools: the OS seeds the shadow alias table
// for each relocated pointer slot at program load.
type Reloc struct {
	Slot   uint64
	Target string
}

// At returns the instruction at virtual address addr, or nil if addr does
// not map to an instruction boundary. The builder lays text out densely
// at avgEncLen strides, so the common case is pure arithmetic (this sits
// on the emulator's per-instruction fetch path); the address tag check
// keeps other layouts correct via the map fallback.
func (p *Program) At(addr uint64) *isa.Inst {
	if addr >= p.TextBase {
		if i := (addr - p.TextBase) / avgEncLen; i < uint64(len(p.Insts)) {
			if in := &p.Insts[i]; in.Addr == addr {
				return in
			}
		}
	}
	if i, ok := p.byAddr[addr]; ok {
		return &p.Insts[i]
	}
	return nil
}

// Lookup resolves a label to its address.
func (p *Program) Lookup(label string) (uint64, bool) {
	a, ok := p.Labels[label]
	return a, ok
}

// MustLookup resolves a label or panics; for use in tests and generators
// where the label is known to exist.
func (p *Program) MustLookup(label string) uint64 {
	a, ok := p.Labels[label]
	if !ok {
		panic("asm: unknown label " + label)
	}
	return a
}

// End returns the first address past program text.
func (p *Program) End() uint64 {
	if len(p.Insts) == 0 {
		return p.TextBase
	}
	last := &p.Insts[len(p.Insts)-1]
	return last.NextAddr()
}

// SortedGlobals returns the globals sorted by address.
func (p *Program) SortedGlobals() []Global {
	gs := append([]Global(nil), p.Globals...)
	sort.Slice(gs, func(i, j int) bool { return gs[i].Addr < gs[j].Addr })
	return gs
}

// fixup records a pending reference from instruction index to a label.
type fixup struct {
	inst  int
	label string
}

// Builder assembles a Program incrementally.
type Builder struct {
	textBase uint64
	insts    []isa.Inst
	labels   map[string]int // label -> instruction index it precedes
	fixups   []fixup
	immFixes []fixup // MovLabel sites: Src.Imm receives the label address
	globals  []Global
	relocs   []Reloc
	data     []DataInit
	err      error
}

// NewBuilder returns a Builder emitting text at DefaultTextBase.
func NewBuilder() *Builder { return NewBuilderAt(DefaultTextBase) }

// NewBuilderAt returns a Builder emitting text at the given base address.
func NewBuilderAt(base uint64) *Builder {
	return &Builder{textBase: base, labels: make(map[string]int)}
}

// Err returns the first error recorded during building, if any.
func (b *Builder) Err() error { return b.err }

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("asm: "+format, args...)
	}
}

// Label defines a label at the current position.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.insts)
	return b
}

// Global registers a global data object for the symbol table.
func (b *Builder) Global(name string, addr, size uint64) *Builder {
	b.globals = append(b.globals, Global{Name: name, Addr: addr, Size: size})
	return b
}

// GlobalRO registers a read-only (.rodata) global data object.
func (b *Builder) GlobalRO(name string, addr, size uint64) *Builder {
	b.globals = append(b.globals, Global{Name: name, Addr: addr, Size: size, ReadOnly: true})
	return b
}

// Reloc registers a data relocation: at load time the 8-byte slot at slot
// receives the address of the named global.
func (b *Builder) Reloc(slot uint64, target string) *Builder {
	b.relocs = append(b.relocs, Reloc{Slot: slot, Target: target})
	return b
}

// DataU64 registers an initialized 8-byte data word at addr.
func (b *Builder) DataU64(addr, val uint64) *Builder {
	b.data = append(b.data, DataInit{Addr: addr, Val: val})
	return b
}

// Globals returns the globals registered so far (build-time introspection
// for generators that need symbol addresses before Build).
func (b *Builder) Globals() []Global { return b.globals }

func (b *Builder) emit(in isa.Inst) *Builder {
	b.insts = append(b.insts, in)
	return b
}

// Nop emits a no-op.
func (b *Builder) Nop() *Builder { return b.emit(isa.Inst{Op: isa.NOP}) }

// Hlt emits a halt, terminating the current hart.
func (b *Builder) Hlt() *Builder { return b.emit(isa.Inst{Op: isa.HLT}) }

// Mov emits mov dst, src for arbitrary operand combinations.
func (b *Builder) Mov(dst, src isa.Operand) *Builder {
	if dst.Kind == isa.OpMem && src.Kind == isa.OpMem {
		b.fail("mov mem,mem is not encodable")
		return b
	}
	return b.emit(isa.Inst{Op: isa.MOV, Dst: dst, Src: src})
}

// MovRR emits mov dst, src between registers.
func (b *Builder) MovRR(dst, src isa.Reg) *Builder {
	return b.Mov(isa.RegOp(dst), isa.RegOp(src))
}

// MovRI emits mov dst, $imm.
func (b *Builder) MovRI(dst isa.Reg, imm int64) *Builder {
	return b.Mov(isa.RegOp(dst), isa.ImmOp(imm))
}

// MovLabel emits mov dst, $label: the immediate is patched to the
// label's resolved address at Build time. This is how generated guests
// materialize function pointers for indirect calls and jump tables.
func (b *Builder) MovLabel(dst isa.Reg, label string) *Builder {
	b.immFixes = append(b.immFixes, fixup{len(b.insts), label})
	return b.emit(isa.Inst{Op: isa.MOV, Dst: isa.RegOp(dst), Src: isa.ImmOp(0)})
}

// Load emits mov dst, [base+disp].
func (b *Builder) Load(dst, base isa.Reg, disp int64) *Builder {
	return b.Mov(isa.RegOp(dst), isa.MemOp(base, disp))
}

// LoadIdx emits mov dst, [base+index*scale+disp].
func (b *Builder) LoadIdx(dst, base, index isa.Reg, scale uint8, disp int64) *Builder {
	return b.Mov(isa.RegOp(dst), isa.MemOpIdx(base, index, scale, disp))
}

// Store emits mov [base+disp], src.
func (b *Builder) Store(base isa.Reg, disp int64, src isa.Reg) *Builder {
	return b.Mov(isa.MemOp(base, disp), isa.RegOp(src))
}

// StoreIdx emits mov [base+index*scale+disp], src.
func (b *Builder) StoreIdx(base, index isa.Reg, scale uint8, disp int64, src isa.Reg) *Builder {
	return b.Mov(isa.MemOpIdx(base, index, scale, disp), isa.RegOp(src))
}

// StoreImm emits mov [base+disp], $imm.
func (b *Builder) StoreImm(base isa.Reg, disp int64, imm int64) *Builder {
	return b.Mov(isa.MemOp(base, disp), isa.ImmOp(imm))
}

// LoadB emits movb dst, [base+disp] (zero-extending byte load).
func (b *Builder) LoadB(dst, base isa.Reg, disp int64) *Builder {
	return b.emit(isa.Inst{Op: isa.MOVB, Dst: isa.RegOp(dst), Src: isa.MemOp(base, disp)})
}

// StoreB emits movb [base+disp], src (low-byte store).
func (b *Builder) StoreB(base isa.Reg, disp int64, src isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.MOVB, Dst: isa.MemOp(base, disp), Src: isa.RegOp(src)})
}

// Lea emits lea dst, [base+index*scale+disp].
func (b *Builder) Lea(dst isa.Reg, mem isa.Operand) *Builder {
	if mem.Kind != isa.OpMem {
		b.fail("lea requires a memory operand")
		return b
	}
	return b.emit(isa.Inst{Op: isa.LEA, Dst: isa.RegOp(dst), Src: mem})
}

// Alu emits a two-operand ALU macro-op (op dst, src).
func (b *Builder) Alu(op isa.MacroOpcode, dst, src isa.Operand) *Builder {
	switch op {
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.IMUL, isa.SHL, isa.SHR,
		isa.CMP, isa.TEST, isa.FADD, isa.FMUL, isa.FDIV:
	default:
		b.fail("not an ALU macro-op: %s", op)
		return b
	}
	if dst.Kind == isa.OpMem && src.Kind == isa.OpMem {
		b.fail("%s mem,mem is not encodable", op)
		return b
	}
	return b.emit(isa.Inst{Op: op, Dst: dst, Src: src})
}

// AddRI emits add dst, $imm.
func (b *Builder) AddRI(dst isa.Reg, imm int64) *Builder {
	return b.Alu(isa.ADD, isa.RegOp(dst), isa.ImmOp(imm))
}

// AddRR emits add dst, src.
func (b *Builder) AddRR(dst, src isa.Reg) *Builder {
	return b.Alu(isa.ADD, isa.RegOp(dst), isa.RegOp(src))
}

// SubRI emits sub dst, $imm.
func (b *Builder) SubRI(dst isa.Reg, imm int64) *Builder {
	return b.Alu(isa.SUB, isa.RegOp(dst), isa.ImmOp(imm))
}

// SubRR emits sub dst, src.
func (b *Builder) SubRR(dst, src isa.Reg) *Builder {
	return b.Alu(isa.SUB, isa.RegOp(dst), isa.RegOp(src))
}

// CmpRI emits cmp dst, $imm.
func (b *Builder) CmpRI(dst isa.Reg, imm int64) *Builder {
	return b.Alu(isa.CMP, isa.RegOp(dst), isa.ImmOp(imm))
}

// CmpRR emits cmp dst, src.
func (b *Builder) CmpRR(dst, src isa.Reg) *Builder {
	return b.Alu(isa.CMP, isa.RegOp(dst), isa.RegOp(src))
}

// TestRR emits test dst, src.
func (b *Builder) TestRR(dst, src isa.Reg) *Builder {
	return b.Alu(isa.TEST, isa.RegOp(dst), isa.RegOp(src))
}

// Inc emits inc reg.
func (b *Builder) Inc(r isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.INC, Dst: isa.RegOp(r)})
}

// Dec emits dec reg.
func (b *Builder) Dec(r isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.DEC, Dst: isa.RegOp(r)})
}

// Neg emits neg reg.
func (b *Builder) Neg(r isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.NEG, Dst: isa.RegOp(r)})
}

// Not emits not reg.
func (b *Builder) Not(r isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.NOT, Dst: isa.RegOp(r)})
}

// Xchg emits xchg dst, src between two registers.
func (b *Builder) Xchg(dst, src isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.XCHG, Dst: isa.RegOp(dst), Src: isa.RegOp(src)})
}

// XchgMem emits xchg [base+disp], reg (the memory-register swap form).
func (b *Builder) XchgMem(base isa.Reg, disp int64, r isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.XCHG, Dst: isa.MemOp(base, disp), Src: isa.RegOp(r)})
}

// Push emits push reg.
func (b *Builder) Push(r isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.PUSH, Dst: isa.RegOp(r)})
}

// Pop emits pop reg.
func (b *Builder) Pop(r isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.POP, Dst: isa.RegOp(r)})
}

// Call emits a direct call to a label.
func (b *Builder) Call(label string) *Builder {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	return b.emit(isa.Inst{Op: isa.CALL})
}

// CallAddr emits a direct call to an absolute address (used for routines,
// such as the heap allocator entry points, that live outside this text).
func (b *Builder) CallAddr(addr uint64) *Builder {
	return b.emit(isa.Inst{Op: isa.CALL, Target: addr})
}

// CallReg emits an indirect call through a register.
func (b *Builder) CallReg(r isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.CALL, Dst: isa.RegOp(r)})
}

// Ret emits a return.
func (b *Builder) Ret() *Builder { return b.emit(isa.Inst{Op: isa.RET}) }

// Jmp emits a direct jump to a label.
func (b *Builder) Jmp(label string) *Builder {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	return b.emit(isa.Inst{Op: isa.JMP})
}

// JmpReg emits an indirect jump through a register.
func (b *Builder) JmpReg(r isa.Reg) *Builder {
	return b.emit(isa.Inst{Op: isa.JMP, Dst: isa.RegOp(r)})
}

// Jcc emits a conditional branch to a label.
func (b *Builder) Jcc(c isa.Cond, label string) *Builder {
	b.fixups = append(b.fixups, fixup{len(b.insts), label})
	return b.emit(isa.Inst{Op: isa.JCC, Cond: c})
}

// Build resolves labels and returns the assembled program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	p := &Program{
		TextBase: b.textBase,
		Insts:    b.insts,
		Labels:   make(map[string]uint64, len(b.labels)),
		Globals:  b.globals,
		Relocs:   b.relocs,
		Data:     b.data,
		byAddr:   make(map[uint64]int, len(b.insts)),
	}
	addr := b.textBase
	for i := range p.Insts {
		p.Insts[i].Addr = addr
		p.Insts[i].EncLen = avgEncLen
		p.byAddr[addr] = i
		addr += avgEncLen
	}
	for name, idx := range b.labels {
		if idx >= len(p.Insts) {
			p.Labels[name] = addr // label at end of text
		} else {
			p.Labels[name] = p.Insts[idx].Addr
		}
	}
	for _, f := range b.fixups {
		target, ok := p.Labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
		p.Insts[f.inst].Target = target
	}
	for _, f := range b.immFixes {
		target, ok := p.Labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
		p.Insts[f.inst].Src.Imm = int64(target)
	}
	return p, nil
}

// MustBuild builds the program or panics; for generators with static code.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
