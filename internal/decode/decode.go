// Package decode implements the CISC→RISC micro-op translation interface
// of the simulated front-end (Figure 2): the 1:1 and 1:4 decoders that
// expand macro-ops into micro-ops, the MSROM path for long expansions, and
// the microcode customization unit that re-routes relevant macro-op
// translations to instrument the micro-op stream with capability micro-ops
// on demand.
package decode

import (
	"strings"

	"chex86/internal/core"
	"chex86/internal/isa"
)

// Stats aggregates decoder activity for the Figure 6 (bottom) micro-op
// expansion comparison.
type Stats struct {
	MacroOps     uint64
	NativeUops   uint64
	InjectedUops uint64 // capability (or software-check) uops added
	MSROMMacros  uint64 // macro-ops whose expansion came from the MSROM
}

// TotalUops returns all micro-ops emitted.
func (s *Stats) TotalUops() uint64 { return s.NativeUops + s.InjectedUops }

// Expansion returns dynamic micro-ops per macro-op.
func (s *Stats) Expansion() float64 {
	if s.MacroOps == 0 {
		return 0
	}
	return float64(s.TotalUops()) / float64(s.MacroOps)
}

// msromThreshold is the widest expansion the parallel 1:4 decoder can
// produce; longer expansions are fetched from the MSROM, which restricts
// fetch to one macro-op that cycle.
const msromThreshold = 4

// Decoder translates macro-ops to micro-ops.
type Decoder struct {
	Stats Stats
}

// Native appends the native (uninstrumented) micro-op expansion of in to
// buf and returns it. Effective addresses are left to the caller, which
// fills them from the functional trace.
func (d *Decoder) Native(in *isa.Inst, buf []isa.Uop) []isa.Uop {
	start := len(buf)
	switch in.Op {
	case isa.NOP, isa.HLT:
		buf = append(buf, isa.Uop{Type: isa.UNop})

	case isa.MOV:
		switch {
		case in.Dst.Kind == isa.OpReg && in.Src.Kind == isa.OpReg:
			buf = append(buf, isa.Uop{Type: isa.UMov, Dst: in.Dst.Reg, Src1: in.Src.Reg})
		case in.Dst.Kind == isa.OpReg && in.Src.Kind == isa.OpImm:
			buf = append(buf, isa.Uop{Type: isa.ULimm, Dst: in.Dst.Reg, Imm: in.Src.Imm, HasImm: true})
		case in.Dst.Kind == isa.OpReg && in.Src.Kind == isa.OpMem:
			buf = append(buf, isa.Uop{Type: isa.ULoad, Dst: in.Dst.Reg, Mem: in.Src.Mem})
		case in.Dst.Kind == isa.OpMem && in.Src.Kind == isa.OpReg:
			buf = append(buf, isa.Uop{Type: isa.UStore, Src1: in.Src.Reg, Mem: in.Dst.Mem})
		case in.Dst.Kind == isa.OpMem && in.Src.Kind == isa.OpImm:
			buf = append(buf,
				isa.Uop{Type: isa.ULimm, Dst: isa.T0, Imm: in.Src.Imm, HasImm: true},
				isa.Uop{Type: isa.UStore, Src1: isa.T0, Mem: in.Dst.Mem})
		}

	case isa.MOVB:
		if in.Dst.Kind == isa.OpReg {
			buf = append(buf, isa.Uop{Type: isa.ULoad, Dst: in.Dst.Reg, Mem: in.Src.Mem, Size: 1})
		} else {
			buf = append(buf, isa.Uop{Type: isa.UStore, Src1: in.Src.Reg, Mem: in.Dst.Mem, Size: 1})
		}

	case isa.LEA:
		buf = append(buf, isa.Uop{Type: isa.ULea, Dst: in.Dst.Reg, Mem: in.Src.Mem})

	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.IMUL, isa.SHL, isa.SHR,
		isa.CMP, isa.TEST, isa.FADD, isa.FMUL, isa.FDIV:
		buf = d.decodeALU(in, buf)

	case isa.INC:
		buf = append(buf, isa.Uop{Type: isa.UAlu, Alu: isa.AluAdd, Dst: in.Dst.Reg,
			Src1: in.Dst.Reg, Imm: 1, HasImm: true})
	case isa.DEC:
		buf = append(buf, isa.Uop{Type: isa.UAlu, Alu: isa.AluSub, Dst: in.Dst.Reg,
			Src1: in.Dst.Reg, Imm: 1, HasImm: true})
	case isa.NEG:
		// 0 - dst: a two-µop sequence through a temporary.
		buf = append(buf,
			isa.Uop{Type: isa.ULimm, Dst: isa.T0, Imm: 0, HasImm: true},
			isa.Uop{Type: isa.UAlu, Alu: isa.AluSub, Dst: in.Dst.Reg, Src1: isa.T0, Src2: in.Dst.Reg})
	case isa.NOT:
		buf = append(buf, isa.Uop{Type: isa.UAlu, Alu: isa.AluXor, Dst: in.Dst.Reg,
			Src1: in.Dst.Reg, Imm: -1, HasImm: true})
	case isa.XCHG:
		if in.Dst.Kind == isa.OpReg && in.Src.Kind == isa.OpReg {
			// The classic three-mov decomposition; PID tags swap with the
			// values through the MOV rule, no dedicated rule needed.
			buf = append(buf,
				isa.Uop{Type: isa.UMov, Dst: isa.T0, Src1: in.Dst.Reg},
				isa.Uop{Type: isa.UMov, Dst: in.Dst.Reg, Src1: in.Src.Reg},
				isa.Uop{Type: isa.UMov, Dst: in.Src.Reg, Src1: isa.T0})
		} else {
			// xchg mem, reg: load the old value, store the register,
			// move the old value into the register.
			buf = append(buf,
				isa.Uop{Type: isa.ULoad, Dst: isa.T0, Mem: in.Dst.Mem},
				isa.Uop{Type: isa.UStore, Src1: in.Src.Reg, Mem: in.Dst.Mem},
				isa.Uop{Type: isa.UMov, Dst: in.Src.Reg, Src1: isa.T0})
		}

	case isa.PUSH:
		buf = append(buf,
			isa.Uop{Type: isa.UStore, Src1: in.Dst.Reg, Mem: isa.MemRef{Base: isa.RSP, Index: isa.RNone, Disp: -8}},
			isa.Uop{Type: isa.UAlu, Alu: isa.AluSub, Dst: isa.RSP, Src1: isa.RSP, Imm: 8, HasImm: true})

	case isa.POP:
		buf = append(buf,
			isa.Uop{Type: isa.ULoad, Dst: in.Dst.Reg, Mem: isa.MemRef{Base: isa.RSP, Index: isa.RNone}},
			isa.Uop{Type: isa.UAlu, Alu: isa.AluAdd, Dst: isa.RSP, Src1: isa.RSP, Imm: 8, HasImm: true})

	case isa.CALL:
		jump := isa.Uop{Type: isa.UJump, Imm: int64(in.Target), HasImm: true, Src1: isa.RNone}
		if in.Dst.Kind == isa.OpReg {
			jump = isa.Uop{Type: isa.UJump, Src1: in.Dst.Reg}
		}
		buf = append(buf,
			isa.Uop{Type: isa.UStore, Src1: isa.RNone, Imm: int64(in.NextAddr()), HasImm: true,
				Mem: isa.MemRef{Base: isa.RSP, Index: isa.RNone, Disp: -8}},
			isa.Uop{Type: isa.UAlu, Alu: isa.AluSub, Dst: isa.RSP, Src1: isa.RSP, Imm: 8, HasImm: true},
			jump)

	case isa.RET:
		buf = append(buf,
			isa.Uop{Type: isa.ULoad, Dst: isa.T0, Mem: isa.MemRef{Base: isa.RSP, Index: isa.RNone}},
			isa.Uop{Type: isa.UAlu, Alu: isa.AluAdd, Dst: isa.RSP, Src1: isa.RSP, Imm: 8, HasImm: true},
			isa.Uop{Type: isa.UJump, Src1: isa.T0})

	case isa.JMP:
		if in.Dst.Kind == isa.OpReg {
			buf = append(buf, isa.Uop{Type: isa.UJump, Src1: in.Dst.Reg})
		} else {
			buf = append(buf, isa.Uop{Type: isa.UJump, Imm: int64(in.Target), HasImm: true, Src1: isa.RNone})
		}

	case isa.JCC:
		buf = append(buf, isa.Uop{Type: isa.UBranch, Cond: in.Cond, Imm: int64(in.Target),
			HasImm: true, Src1: isa.FLAGS})
	}

	for i := start; i < len(buf); i++ {
		buf[i].MacroIdx = uint8(i - start)
		normalize(&buf[i])
	}
	d.Stats.MacroOps++
	d.Stats.NativeUops += uint64(len(buf) - start)
	return buf
}

func aluOpFor(op isa.MacroOpcode) isa.AluOp {
	switch op {
	case isa.ADD:
		return isa.AluAdd
	case isa.SUB:
		return isa.AluSub
	case isa.AND:
		return isa.AluAnd
	case isa.OR:
		return isa.AluOr
	case isa.XOR:
		return isa.AluXor
	case isa.IMUL:
		return isa.AluMul
	case isa.SHL:
		return isa.AluShl
	case isa.SHR:
		return isa.AluShr
	case isa.CMP:
		return isa.AluCmp
	case isa.TEST:
		return isa.AluTest
	case isa.FADD:
		return isa.AluFAdd
	case isa.FMUL:
		return isa.AluFMul
	case isa.FDIV:
		return isa.AluFDiv
	}
	return isa.AluAdd
}

func (d *Decoder) decodeALU(in *isa.Inst, buf []isa.Uop) []isa.Uop {
	alu := aluOpFor(in.Op)
	flagsOnly := in.Op == isa.CMP || in.Op == isa.TEST

	dstReg := isa.FLAGS
	if !flagsOnly && in.Dst.Kind == isa.OpReg {
		dstReg = in.Dst.Reg
	}

	switch {
	case in.Dst.Kind == isa.OpReg && in.Src.Kind == isa.OpReg:
		buf = append(buf, isa.Uop{Type: isa.UAlu, Alu: alu, Dst: dstReg, Src1: in.Dst.Reg, Src2: in.Src.Reg})
	case in.Dst.Kind == isa.OpReg && in.Src.Kind == isa.OpImm:
		buf = append(buf, isa.Uop{Type: isa.UAlu, Alu: alu, Dst: dstReg, Src1: in.Dst.Reg,
			Imm: in.Src.Imm, HasImm: true})
	case in.Dst.Kind == isa.OpReg && in.Src.Kind == isa.OpMem:
		buf = append(buf,
			isa.Uop{Type: isa.ULoad, Dst: isa.T0, Mem: in.Src.Mem},
			isa.Uop{Type: isa.UAlu, Alu: alu, Dst: dstReg, Src1: in.Dst.Reg, Src2: isa.T0})
	case in.Dst.Kind == isa.OpMem && (in.Src.Kind == isa.OpReg || in.Src.Kind == isa.OpImm):
		ld := isa.Uop{Type: isa.ULoad, Dst: isa.T0, Mem: in.Dst.Mem}
		var op isa.Uop
		if in.Src.Kind == isa.OpReg {
			op = isa.Uop{Type: isa.UAlu, Alu: alu, Dst: isa.T0, Src1: isa.T0, Src2: in.Src.Reg}
		} else {
			op = isa.Uop{Type: isa.UAlu, Alu: alu, Dst: isa.T0, Src1: isa.T0, Imm: in.Src.Imm, HasImm: true}
		}
		if flagsOnly {
			op.Dst = isa.FLAGS
			buf = append(buf, ld, op)
		} else {
			buf = append(buf, ld, op, isa.Uop{Type: isa.UStore, Src1: isa.T0, Mem: in.Dst.Mem})
		}
	}
	return buf
}

// normalize clears unused register fields to RNone so the zero value of
// Reg (which is a real register) cannot create phantom dependencies or
// phantom tag propagations.
func normalize(u *isa.Uop) {
	switch u.Type {
	case isa.UNop:
		u.Dst, u.Src1, u.Src2 = isa.RNone, isa.RNone, isa.RNone
	case isa.UMov:
		u.Src2 = isa.RNone
	case isa.ULimm, isa.ULea, isa.ULoad:
		u.Src1, u.Src2 = isa.RNone, isa.RNone
	case isa.UStore:
		u.Dst, u.Src2 = isa.RNone, isa.RNone
	case isa.UBranch, isa.UJump:
		u.Dst, u.Src2 = isa.RNone, isa.RNone
	case isa.UAlu:
		if u.HasImm {
			u.Src2 = isa.RNone
		}
	case isa.UCapGenBegin, isa.UCapGenEnd, isa.UCapFreeBegin, isa.UCapFreeEnd, isa.UCapCheck:
		u.Dst = isa.RNone
	}
}

// Variant selects the protection scheme whose instrumentation the
// customization unit applies (Section I's three design points, plus the
// software comparisons).
type Variant uint8

const (
	// VariantInsecure is the unprotected baseline.
	VariantInsecure Variant = iota
	// VariantHardwareOnly performs capability checks inside the load/store
	// unit with no code instrumentation.
	VariantHardwareOnly
	// VariantBinaryTranslation instruments every register-memory macro-op
	// with check instructions from secure ISA extensions, consuming
	// front-end macro-op fetch slots.
	VariantBinaryTranslation
	// VariantMicrocodeAlwaysOn injects capCheck micro-ops for every
	// load/store regardless of pointer-tracking state.
	VariantMicrocodeAlwaysOn
	// VariantMicrocodePrediction is the default CHEx86 design: capCheck
	// micro-ops are injected only for dereferences the speculative pointer
	// tracker tags with a non-zero PID.
	VariantMicrocodePrediction
	// VariantASan models LLVM AddressSanitizer: software shadow-memory
	// checks compiled around every memory access.
	VariantASan
	// VariantWatchdog models Watchdog's conservative micro-op
	// instrumentation (Section VII-C): every 64-bit load/store is
	// instrumented, and every access also reads its pointer-identifier
	// metadata from shadow memory — deferring alias detection to the
	// execute stage and roughly doubling memory references.
	VariantWatchdog
	// NumVariants counts the variants.
	NumVariants
)

var variantNames = [NumVariants]string{
	"Insecure BaseLine",
	"CHEx86: Hardware Only",
	"CHEx86: Binary Translation",
	"CHEx86: Micro-code Level - Always On",
	"CHEx86: Micro-code Prediction Driven",
	"ASan",
	"Watchdog-style (conservative uop instrumentation)",
}

// variantShortNames are the short names the CLIs, campaign specs, the
// chexd API and reports use; ParseVariant also accepts "insecure" for the
// baseline.
var variantShortNames = [NumVariants]string{
	"baseline",
	"hardware",
	"bintrans",
	"always-on",
	"prediction",
	"asan",
	"watchdog",
}

// String names the variant as in Figure 6's legend.
func (v Variant) String() string {
	if v < NumVariants {
		return variantNames[v]
	}
	return "variant?"
}

// ShortName is the variant's short name, the one ParseVariant resolves
// (String is the long display name, too wide for tables and JSON keys).
func (v Variant) ShortName() string {
	if v < NumVariants {
		return variantShortNames[v]
	}
	return v.String()
}

// ParseVariant resolves a short variant name, ignoring case.
func ParseVariant(name string) (Variant, bool) {
	name = strings.ToLower(name)
	if name == "insecure" {
		return VariantInsecure, true
	}
	for v, n := range variantShortNames {
		if n == name {
			return Variant(v), true
		}
	}
	return 0, false
}

// Protected reports whether the variant provides memory-safety protection.
func (v Variant) Protected() bool { return v != VariantInsecure }

// UsesTracker reports whether the variant needs the speculative pointer
// tracker (all CHEx86 variants track pointers to know which capability a
// dereference uses; ASan and the insecure baseline do not).
func (v Variant) UsesTracker() bool {
	switch v {
	case VariantHardwareOnly, VariantBinaryTranslation, VariantMicrocodeAlwaysOn,
		VariantMicrocodePrediction, VariantWatchdog:
		return true
	}
	return false
}

// InjectsChecks reports whether the variant adds check micro-ops into the
// stream (as opposed to checking inside the load/store unit or not at all).
func (v Variant) InjectsChecks() bool {
	switch v {
	case VariantBinaryTranslation, VariantMicrocodeAlwaysOn, VariantMicrocodePrediction,
		VariantASan, VariantWatchdog:
		return true
	}
	return false
}

// CheckDecision tells the customization unit what to do with one memory
// micro-op.
type CheckDecision struct {
	Inject    bool
	PID       core.PID
	ZeroIdiom bool // inject but squash at the IQ (the PNA0 recovery path)
}

// Customize applies the microcode customization unit to a macro-op's
// native expansion: for each memory micro-op, the decision function is
// consulted and a capCheck micro-op is injected ahead of it when
// requested. The returned slice also reports whether the expansion widened
// past the parallel decoders into the MSROM.
func (d *Decoder) Customize(native []isa.Uop, decide func(memUop *isa.Uop) CheckDecision) ([]isa.Uop, bool) {
	out := make([]isa.Uop, 0, len(native)+2)
	for i := range native {
		u := &native[i]
		if u.Type.IsMem() {
			dec := decide(u)
			if dec.Inject {
				chk := isa.Uop{
					Type: isa.UCapCheck, Dst: isa.RNone, Src1: u.Mem.Base, Src2: u.Mem.Index,
					Mem: u.Mem, EA: u.EA, PID: dec.PID, Injected: true, ZeroIdiom: dec.ZeroIdiom,
				}
				out = append(out, chk)
				d.Stats.InjectedUops++
			}
		}
		out = append(out, *u)
	}
	msrom := len(out) > msromThreshold
	if msrom {
		d.Stats.MSROMMacros++
	}
	for i := range out {
		out[i].MacroIdx = uint8(i)
	}
	return out, msrom
}

// ASanShadowBase is the base of the modeled AddressSanitizer shadow region
// (shadow byte address = (addr >> 3) + base).
const ASanShadowBase = 0x0000_1000_0000_0000

// WatchdogShadowBase is the base of the modeled Watchdog metadata region:
// one 64-bit pointer-identifier word per 64-bit program word (the 1:1
// shadow mapping whose storage and bandwidth CHEx86's allocation- and
// reference-scaled tables improve on).
const WatchdogShadowBase = 0x0000_2000_0000_0000

// ASanInstrument wraps a macro-op's native expansion with AddressSanitizer-
// style software checks: for every memory micro-op, compute the shadow
// address (1 ALU op), load the shadow byte (1 load), and test-and-branch on
// it (2 ops). The shadow load's EA is derived from the access EA so the
// checks exert real cache pressure. The instrumented expansion is appended
// to out (pass a reused buffer to avoid allocating) and returned.
func (d *Decoder) ASanInstrument(native, out []isa.Uop) []isa.Uop {
	start := len(out)
	for i := range native {
		u := &native[i]
		if u.Type.IsMem() {
			shadowEA := (u.EA >> 3) + ASanShadowBase
			out = append(out,
				isa.Uop{Type: isa.ULea, Dst: isa.T1, Src1: isa.RNone, Src2: isa.RNone, Mem: u.Mem, Injected: true},
				isa.Uop{Type: isa.UAlu, Alu: isa.AluShr, Dst: isa.T1, Src1: isa.T1, Src2: isa.RNone, Imm: 3, HasImm: true, Injected: true},
				isa.Uop{Type: isa.ULoad, Dst: isa.T1, Src1: isa.RNone, Src2: isa.RNone, EA: shadowEA, Injected: true,
					Mem: isa.MemRef{Base: isa.T1, Index: isa.RNone, Disp: ASanShadowBase}},
				isa.Uop{Type: isa.UAlu, Alu: isa.AluTest, Dst: isa.FLAGS, Src1: isa.T1, Src2: isa.T1, Injected: true},
				isa.Uop{Type: isa.UBranch, Cond: isa.CondNE, Dst: isa.RNone, Src1: isa.FLAGS, Src2: isa.RNone, Injected: true},
			)
			d.Stats.InjectedUops += 5
		}
		out = append(out, *u)
	}
	for i := start; i < len(out); i++ {
		out[i].MacroIdx = uint8(i - start)
	}
	return out
}
