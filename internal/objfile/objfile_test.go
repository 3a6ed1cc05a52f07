package objfile

import (
	"bytes"
	"testing"

	"chex86/internal/asm"
	"chex86/internal/heap"
	"chex86/internal/isa"
	"chex86/internal/mem"
)

// sampleProgram builds a program exercising every section: text with all
// operand kinds, globals (rw + ro), relocations, data words, labels.
func sampleProgram(t *testing.T) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	g := uint64(mem.GlobalBase)
	b.Global("table", g, 256)
	b.GlobalRO("konst", g+256, 64)
	b.Global("ptr", g+320, 8)
	b.Reloc(g+320, "table")
	b.DataU64(g+256, 0xDEADBEEF)

	b.MovRI(isa.RDI, 64)
	b.CallAddr(heap.MallocEntry)
	b.MovRR(isa.RBX, isa.RAX)
	b.Label("loop")
	b.StoreIdx(isa.RBX, isa.RCX, 8, 0, isa.RCX)
	b.AddRI(isa.RCX, 1)
	b.CmpRI(isa.RCX, 8)
	b.Jcc(isa.CondL, "loop")
	b.LoadB(isa.RDX, isa.RBX, 3)
	b.StoreB(isa.RBX, 4, isa.RDX)
	b.Lea(isa.RSI, isa.MemOp(isa.RBX, 16))
	b.Hlt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func TestEncodeDeterministic(t *testing.T) {
	p := sampleProgram(t)
	a, b := Encode(p), Encode(p)
	if !bytes.Equal(a, b) {
		t.Fatal("Encode is not deterministic (label ordering?)")
	}
}

// TestEncodeCoversEveryField: the image is a cache key, so a program
// that differs from another in any field Encode writes must encode to
// different bytes. Each case changes one field of a fresh sample program
// and requires the image to change.
func TestEncodeCoversEveryField(t *testing.T) {
	// operand returns the first operand of kind k in the text.
	operand := func(p *asm.Program, k isa.OperandKind) *isa.Operand {
		for i := range p.Insts {
			for _, o := range []*isa.Operand{&p.Insts[i].Dst, &p.Insts[i].Src} {
				if o.Kind == k {
					return o
				}
			}
		}
		t.Fatalf("sample program has no operand of kind %d", k)
		return nil
	}
	cases := []struct {
		field  string
		mutate func(p *asm.Program)
	}{
		{"TextBase", func(p *asm.Program) { p.TextBase += 0x1000 }},
		{"Inst.Op", func(p *asm.Program) { p.Insts[0].Op++ }},
		{"Inst.Cond", func(p *asm.Program) { p.Insts[0].Cond++ }},
		{"Inst.Dst", func(p *asm.Program) { p.Insts[0].Dst = isa.Operand{} }},
		{"Inst.Src", func(p *asm.Program) { p.Insts[0].Src = isa.Operand{} }},
		{"Inst.Target", func(p *asm.Program) { p.Insts[0].Target++ }},
		{"Inst.Addr", func(p *asm.Program) { p.Insts[0].Addr++ }},
		{"Inst.EncLen", func(p *asm.Program) { p.Insts[0].EncLen++ }},
		{"Operand.Kind", func(p *asm.Program) { operand(p, isa.OpReg).Kind = isa.OpNone }},
		{"reg Operand.Reg", func(p *asm.Program) { operand(p, isa.OpReg).Reg++ }},
		{"imm Operand.Imm", func(p *asm.Program) { operand(p, isa.OpImm).Imm++ }},
		{"mem MemRef.Base", func(p *asm.Program) { operand(p, isa.OpMem).Mem.Base++ }},
		{"mem MemRef.Index", func(p *asm.Program) { operand(p, isa.OpMem).Mem.Index++ }},
		{"mem MemRef.Scale", func(p *asm.Program) { operand(p, isa.OpMem).Mem.Scale++ }},
		{"mem MemRef.Disp", func(p *asm.Program) { operand(p, isa.OpMem).Mem.Disp++ }},
		{"Global.Name", func(p *asm.Program) { p.Globals[0].Name += "x" }},
		{"Global.Addr", func(p *asm.Program) { p.Globals[0].Addr++ }},
		{"Global.Size", func(p *asm.Program) { p.Globals[0].Size++ }},
		{"Global.ReadOnly", func(p *asm.Program) { p.Globals[0].ReadOnly = !p.Globals[0].ReadOnly }},
		{"Reloc.Slot", func(p *asm.Program) { p.Relocs[0].Slot++ }},
		{"Reloc.Target", func(p *asm.Program) { p.Relocs[0].Target = "konst" }},
		{"DataInit.Addr", func(p *asm.Program) { p.Data[0].Addr++ }},
		{"DataInit.Val", func(p *asm.Program) { p.Data[0].Val++ }},
		{"label name", func(p *asm.Program) { p.Labels["loop2"] = p.Labels["loop"]; delete(p.Labels, "loop") }},
		{"label address", func(p *asm.Program) { p.Labels["loop"]++ }},
	}
	base := Encode(sampleProgram(t))
	for _, c := range cases {
		p := sampleProgram(t)
		c.mutate(p)
		if bytes.Equal(Encode(p), base) {
			t.Errorf("changing %s leaves the image unchanged", c.field)
		}
	}
}
