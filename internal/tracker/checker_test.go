package tracker

import (
	"testing"

	"chex86/internal/asm"
	"chex86/internal/core"
	"chex86/internal/emu"
	"chex86/internal/isa"
)

// fabricate a record carrying a register result.
func resultRec(dst isa.Reg, val uint64) *emu.Rec {
	in := &isa.Inst{Op: isa.MOV, Dst: isa.RegOp(dst), Src: isa.RegOp(isa.RBX)}
	return &emu.Rec{Inst: in, Val: val, HasVal: true}
}

func TestCheckerAgreement(t *testing.T) {
	truth := emu.NewTruth()
	pid := truth.Add(0x1000, 64)
	tags := NewRegTags()
	c := NewChecker(truth, tags)

	// Tracker says pid; ground truth agrees: match.
	tags.Propagate(1, isa.RAX, pid)
	if !c.Validate(resultRec(isa.RAX, 0x1010)) {
		t.Fatal("agreeing prediction flagged")
	}
	// Tracker says 0 for a non-pointer value: match.
	tags.Propagate(2, isa.RAX, 0)
	if !c.Validate(resultRec(isa.RAX, 12345)) {
		t.Fatal("non-pointer value flagged")
	}
	// Wild tag over a non-pointer is deliberate conservatism, not a bug.
	tags.Propagate(3, isa.RAX, core.WildPID)
	if !c.Validate(resultRec(isa.RAX, 7)) {
		t.Fatal("wild-over-integer must not count as a rule failure")
	}
	if c.Stats.Mismatches != 0 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestCheckerMismatchDump(t *testing.T) {
	truth := emu.NewTruth()
	pid := truth.Add(0x1000, 64)
	tags := NewRegTags()
	c := NewChecker(truth, tags)

	// The tracker lost the pointer: result is inside the tracked block but
	// the tag says 0 — the rule-gap case the checker dumps for manual
	// rule-database extension.
	tags.Propagate(1, isa.RAX, 0)
	if c.Validate(resultRec(isa.RAX, 0x1008)) {
		t.Fatal("rule gap must be flagged")
	}
	if c.Stats.Mismatches != 1 || len(c.Log) != 1 {
		t.Fatalf("mismatch not dumped: %+v", c.Stats)
	}
	m := c.Log[0]
	if m.Actual != pid || m.Tracked != 0 || m.Value != 0x1008 {
		t.Fatalf("dump contents wrong: %+v", m)
	}
	if m.String() == "" {
		t.Fatal("dump must render")
	}
}

// TestCheckerCountsWrongPIDsPastLog: the wrong-PID count that Table I's
// exit rule reads covers every mismatch, not just the logged ones.
func TestCheckerCountsWrongPIDsPastLog(t *testing.T) {
	truth := emu.NewTruth()
	truth.Add(0x1000, 64)
	other := truth.Add(0x2000, 64)
	tags := NewRegTags()
	c := NewChecker(truth, tags)
	c.LogCap = 1

	// The tracker tags a pointer into the first block with the second
	// block's PID, twice: two rule bugs, one log slot.
	for seq := uint64(1); seq <= 2; seq++ {
		tags.Propagate(seq, isa.RAX, other)
		if c.Validate(resultRec(isa.RAX, 0x1008)) {
			t.Fatal("wrong PID must be flagged")
		}
	}
	if c.Stats.WrongPIDs != 2 || len(c.Log) != 1 {
		t.Fatalf("WrongPIDs = %d with %d logged, want 2 with 1", c.Stats.WrongPIDs, len(c.Log))
	}
}

func TestCheckerIgnoresNonRegisterResults(t *testing.T) {
	truth := emu.NewTruth()
	c := NewChecker(truth, NewRegTags())
	st := &emu.Rec{Inst: &isa.Inst{Op: isa.MOV, Dst: isa.MemOp(isa.RBX, 0), Src: isa.RegOp(isa.RAX)}}
	if !c.Validate(st) {
		t.Fatal("stores carry no register result to validate")
	}
	if c.Stats.Validations != 0 {
		t.Fatal("non-results must not count as validations")
	}
}

// TestCheckerOverWholeProgram runs the checker against a guest program
// with heavy pointer traffic through asm/emu directly (without the
// pipeline), confirming zero mismatches.
func TestCheckerOverWholeProgram(t *testing.T) {
	b := asm.NewBuilder()
	b.MovRI(isa.RDI, 128)
	b.CallAddr(0x500000) // malloc
	b.MovRR(isa.RBX, isa.RAX)
	b.AddRI(isa.RBX, 16)
	b.SubRI(isa.RBX, 8)
	b.MovRR(isa.RCX, isa.RBX)
	b.Hlt()
	m := emu.New(b.MustBuild(), emu.Options{})
	e := newEngine()
	checker := NewChecker(m.Truth, e.Tags)
	var d dec
	for {
		rec, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		d.apply(e, rec)
		checker.Validate(rec)
	}
	if checker.Stats.Mismatches != 0 {
		t.Fatalf("mismatches over pointer arithmetic: %v", checker.Log)
	}
	if checker.Stats.Validations == 0 {
		t.Fatal("nothing validated")
	}
}

// dec is a minimal front-end stand-in: it applies the tracking rules for
// the handful of macro shapes the test program uses.
type dec struct{}

func (dec) apply(e *Engine, rec *emu.Rec) {
	in := rec.Inst
	seq := rec.Seq
	switch {
	case rec.Event == emu.EvAllocExit:
		e.SetReg(seq, isa.RAX, rec.AllocPID)
	case in.Op == isa.MOV && in.Dst.Kind == isa.OpReg && in.Src.Kind == isa.OpReg:
		e.ApplyRegRule(seq, &isa.Uop{Type: isa.UMov, Dst: in.Dst.Reg, Src1: in.Src.Reg, Src2: isa.RNone})
	case in.Op == isa.MOV && in.Dst.Kind == isa.OpReg && in.Src.Kind == isa.OpImm:
		e.ApplyRegRule(seq, &isa.Uop{Type: isa.ULimm, Dst: in.Dst.Reg, Imm: in.Src.Imm, HasImm: true, Src1: isa.RNone, Src2: isa.RNone})
	case in.Op == isa.ADD && in.Dst.Kind == isa.OpReg && in.Src.Kind == isa.OpImm:
		e.ApplyRegRule(seq, &isa.Uop{Type: isa.UAlu, Alu: isa.AluAdd, Dst: in.Dst.Reg, Src1: in.Dst.Reg, Imm: in.Src.Imm, HasImm: true, Src2: isa.RNone})
	case in.Op == isa.SUB && in.Dst.Kind == isa.OpReg && in.Src.Kind == isa.OpImm:
		e.ApplyRegRule(seq, &isa.Uop{Type: isa.UAlu, Alu: isa.AluSub, Dst: in.Dst.Reg, Src1: in.Dst.Reg, Imm: in.Src.Imm, HasImm: true, Src2: isa.RNone})
	}
}
