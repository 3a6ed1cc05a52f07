package isa

import "fmt"

// UopType identifies a micro-operation class. Micro-ops are the RISC-style
// operations produced by the CISC→RISC decoder (Figure 2) and, for the
// CHEx86 variants, injected by the microcode customization unit.
type UopType uint8

const (
	UNop    UopType = iota
	UMov            // reg <- reg
	ULimm           // reg <- imm (the paper's MOVI / load-immediate rule)
	UAlu            // reg <- reg op reg/imm
	ULea            // reg <- effective address
	ULoad           // reg <- mem[EA]
	UStore          // mem[EA] <- reg
	UBranch         // conditional redirect
	UJump           // unconditional/indirect redirect

	// Capability micro-ops injected by the microcode customization unit
	// (Section IV-C). They never appear in native decode output.
	UCapGenBegin  // instantiate capability, set busy, bounds <- %rdi
	UCapGenEnd    // base <- %rax, clear busy, set valid
	UCapFreeBegin // set busy on the capability being freed
	UCapFreeEnd   // clear valid and busy
	UCapCheck     // validate a dereference against the shadow capability table

	numUopTypes
)

var uopNames = [numUopTypes]string{
	"nop", "mov", "limm", "alu", "lea", "ld", "st", "br", "jmp",
	"capGen.Begin", "capGen.End", "capFree.Begin", "capFree.End", "capCheck",
}

// String returns the micro-op mnemonic.
func (t UopType) String() string {
	if t < numUopTypes {
		return uopNames[t]
	}
	return fmt.Sprintf("uop?%d", uint8(t))
}

// IsMem reports whether the micro-op accesses program-visible memory.
func (t UopType) IsMem() bool { return t == ULoad || t == UStore }

// AluOp names the operation performed by a UAlu micro-op.
type AluOp uint8

const (
	AluAdd AluOp = iota
	AluSub
	AluAnd
	AluOr
	AluXor
	AluMul
	AluShl
	AluShr
	AluCmp  // subtract, flags only
	AluTest // and, flags only
	AluFAdd
	AluFMul
	AluFDiv
)

var aluNames = [...]string{
	"add", "sub", "and", "or", "xor", "mul", "shl", "shr",
	"cmp", "test", "fadd", "fmul", "fdiv",
}

// String returns the ALU operation mnemonic.
func (a AluOp) String() string {
	if int(a) < len(aluNames) {
		return aluNames[a]
	}
	return "?"
}

// FUClass identifies the functional-unit pool a micro-op issues to
// (Table III: Int ALU(6)/Mult(1), FPALU(3), SIMD(3); plus memory ports).
type FUClass uint8

const (
	FUIntALU FUClass = iota
	FUIntMult
	FUFPALU
	FUSIMD
	FULoad
	FUStore
	FUBranchUnit
	NumFUClasses
)

var fuNames = [NumFUClasses]string{"intALU", "intMult", "fpALU", "simd", "ldPort", "stPort", "brUnit"}

// String names the functional-unit class.
func (f FUClass) String() string {
	if f < NumFUClasses {
		return fuNames[f]
	}
	return "fu?"
}

// Uop is a single micro-operation. Register fields refer to architectural
// and temporary registers; renaming happens in the timing model.
type Uop struct {
	Type UopType
	Alu  AluOp
	Dst  Reg // RNone if no register result
	Src1 Reg
	Src2 Reg
	Imm  int64
	Cond Cond

	// HasImm marks Imm as a live second source for ALU ops (reg-imm forms,
	// the paper's addi/subi/andi rules).
	HasImm bool

	// MemRef holds the addressing-mode registers for loads/stores so the
	// rule-based pointer tracker can identify the base register being
	// dereferenced. EA is filled from the functional trace when the uop is
	// produced for a committed instruction.
	Mem MemRef
	EA  uint64

	// Injected marks micro-ops inserted by the microcode customization
	// unit (or, in the ASan/BT variants, by software instrumentation)
	// rather than produced by native decode.
	Injected bool

	// ZeroIdiom marks a uop squashed at the instruction queue before
	// dispatch (the PNA0 recovery path in Figure 5c): it occupies front-end
	// slots but never issues to a functional unit.
	ZeroIdiom bool

	// PID carries the capability identifier this capability uop operates
	// on, assigned by the speculative pointer tracker.
	PID int64

	// MacroIdx is the index of the uop within its macro-op's expansion.
	MacroIdx uint8

	// Size is the access width in bytes for memory micro-ops (0 means the
	// default 8-byte word).
	Size uint8
}

// AccessSize returns the memory micro-op's width in bytes.
func (u *Uop) AccessSize() uint32 {
	if u.Size == 0 {
		return 8
	}
	return uint32(u.Size)
}

// String renders the micro-op for diagnostics.
func (u *Uop) String() string {
	switch u.Type {
	case UAlu:
		if u.HasImm {
			return fmt.Sprintf("%si %s, %s, $%#x", u.Alu, u.Dst, u.Src1, u.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", u.Alu, u.Dst, u.Src1, u.Src2)
	case ULimm:
		return fmt.Sprintf("limm %s, $%#x", u.Dst, u.Imm)
	case UMov:
		return fmt.Sprintf("mov %s, %s", u.Dst, u.Src1)
	case ULea:
		return fmt.Sprintf("lea %s, %s", u.Dst, u.Mem)
	case ULoad:
		return fmt.Sprintf("ldq %s, %s", u.Dst, u.Mem)
	case UStore:
		return fmt.Sprintf("stq %s, %s", u.Src1, u.Mem)
	case UBranch:
		return fmt.Sprintf("br.%s $%#x", u.Cond, u.Imm)
	case UJump:
		if u.Src1.Valid() {
			return fmt.Sprintf("jmp *%s", u.Src1)
		}
		return fmt.Sprintf("jmp $%#x", u.Imm)
	case UCapCheck:
		return fmt.Sprintf("capCheck pid=%d ea=%#x", u.PID, u.EA)
	case UCapGenBegin, UCapGenEnd, UCapFreeBegin, UCapFreeEnd:
		return fmt.Sprintf("%s pid=%d", u.Type, u.PID)
	}
	return u.Type.String()
}

// FU returns the functional-unit class the micro-op issues to.
func (u *Uop) FU() FUClass {
	switch u.Type {
	case ULoad:
		return FULoad
	case UStore:
		return FUStore
	case UBranch, UJump:
		return FUBranchUnit
	case UAlu:
		switch u.Alu {
		case AluMul:
			return FUIntMult
		case AluFAdd, AluFMul, AluFDiv:
			return FUFPALU
		}
		return FUIntALU
	case UCapCheck, UCapGenBegin, UCapGenEnd, UCapFreeBegin, UCapFreeEnd:
		// Capability uops execute on integer ALUs with their own
		// capability-cache port; they are not on the load critical path.
		return FUIntALU
	}
	return FUIntALU
}

// Latency returns the execute latency in cycles, exclusive of any memory
// hierarchy time charged separately for memory uops.
func (u *Uop) Latency() uint8 {
	switch u.Type {
	case UAlu:
		switch u.Alu {
		case AluMul:
			return 3
		case AluFAdd:
			return 4
		case AluFMul:
			return 5
		case AluFDiv:
			return 12
		}
		return 1
	case ULea:
		return 1
	case ULoad, UStore:
		return 1 // address generation; hierarchy latency added by the cache model
	case UCapCheck:
		return 2 // capability-cache hit check latency (off the load path)
	case UCapGenBegin, UCapGenEnd, UCapFreeBegin, UCapFreeEnd:
		return 2
	}
	return 1
}

// WritesReg reports whether the micro-op produces a register result.
func (u *Uop) WritesReg() bool { return u.Dst.Valid() }
