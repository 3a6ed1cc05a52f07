package decode

import (
	"testing"

	"chex86/internal/core"
	"chex86/internal/isa"
)

func expand(t *testing.T, in isa.Inst) []isa.Uop {
	t.Helper()
	var d Decoder
	return d.Native(&in, nil)
}

func TestNativeExpansions(t *testing.T) {
	cases := []struct {
		name  string
		in    isa.Inst
		types []isa.UopType
	}{
		{"mov r,r", isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.RAX), Src: isa.RegOp(isa.RBX)},
			[]isa.UopType{isa.UMov}},
		{"mov r,imm", isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.RAX), Src: isa.ImmOp(5)},
			[]isa.UopType{isa.ULimm}},
		{"mov r,m", isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.RAX), Src: isa.MemOp(isa.RBX, 0)},
			[]isa.UopType{isa.ULoad}},
		{"mov m,r", isa.Inst{Op: isa.MOV, Dst: isa.MemOp(isa.RBX, 0), Src: isa.RegOp(isa.RAX)},
			[]isa.UopType{isa.UStore}},
		{"mov m,imm", isa.Inst{Op: isa.MOV, Dst: isa.MemOp(isa.RBX, 0), Src: isa.ImmOp(5)},
			[]isa.UopType{isa.ULimm, isa.UStore}},
		{"lea", isa.Inst{Op: isa.LEA, Dst: isa.RegOp(isa.RAX), Src: isa.MemOp(isa.RBX, 8)},
			[]isa.UopType{isa.ULea}},
		{"add r,r", isa.Inst{Op: isa.ADD, Dst: isa.RegOp(isa.RAX), Src: isa.RegOp(isa.RBX)},
			[]isa.UopType{isa.UAlu}},
		{"add r,m (load-op)", isa.Inst{Op: isa.ADD, Dst: isa.RegOp(isa.RAX), Src: isa.MemOp(isa.RBX, 0)},
			[]isa.UopType{isa.ULoad, isa.UAlu}},
		{"add m,r (rmw)", isa.Inst{Op: isa.ADD, Dst: isa.MemOp(isa.RBX, 0), Src: isa.RegOp(isa.RAX)},
			[]isa.UopType{isa.ULoad, isa.UAlu, isa.UStore}},
		{"cmp r,m", isa.Inst{Op: isa.CMP, Dst: isa.RegOp(isa.RAX), Src: isa.MemOp(isa.RBX, 0)},
			[]isa.UopType{isa.ULoad, isa.UAlu}},
		{"cmp m,imm (no store)", isa.Inst{Op: isa.CMP, Dst: isa.MemOp(isa.RBX, 0), Src: isa.ImmOp(1)},
			[]isa.UopType{isa.ULoad, isa.UAlu}},
		{"push", isa.Inst{Op: isa.PUSH, Dst: isa.RegOp(isa.RAX)},
			[]isa.UopType{isa.UStore, isa.UAlu}},
		{"pop", isa.Inst{Op: isa.POP, Dst: isa.RegOp(isa.RAX)},
			[]isa.UopType{isa.ULoad, isa.UAlu}},
		{"call", isa.Inst{Op: isa.CALL, Target: 0x1000},
			[]isa.UopType{isa.UStore, isa.UAlu, isa.UJump}},
		{"ret", isa.Inst{Op: isa.RET},
			[]isa.UopType{isa.ULoad, isa.UAlu, isa.UJump}},
		{"jcc", isa.Inst{Op: isa.JCC, Cond: isa.CondE, Target: 0x1000},
			[]isa.UopType{isa.UBranch}},
		{"jmp indirect", isa.Inst{Op: isa.JMP, Dst: isa.RegOp(isa.RAX)},
			[]isa.UopType{isa.UJump}},
	}
	for _, c := range cases {
		uops := expand(t, c.in)
		if len(uops) != len(c.types) {
			t.Errorf("%s: %d uops, want %d", c.name, len(uops), len(c.types))
			continue
		}
		for i := range uops {
			if uops[i].Type != c.types[i] {
				t.Errorf("%s uop %d: %v, want %v", c.name, i, uops[i].Type, c.types[i])
			}
		}
	}
}

// TestNormalizeNoPhantomRAX guards against the zero-value-Reg pitfall: no
// decoded micro-op may reference RAX unless the macro-op actually does.
func TestNormalizeNoPhantomRAX(t *testing.T) {
	ins := []isa.Inst{
		{Op: isa.JCC, Cond: isa.CondE, Target: 0x1000},
		{Op: isa.RET},
		{Op: isa.PUSH, Dst: isa.RegOp(isa.RBX)},
		{Op: isa.MOV, Dst: isa.MemOp(isa.RBX, 0), Src: isa.RegOp(isa.RCX)},
		{Op: isa.NOP},
	}
	for _, in := range ins {
		for _, u := range expand(t, in) {
			for _, r := range []isa.Reg{u.Dst, u.Src1, u.Src2} {
				if r == isa.RAX {
					t.Errorf("%v decodes to %v touching phantom RAX", in.Op, u.String())
				}
			}
		}
	}
}

func TestDecoderStats(t *testing.T) {
	var d Decoder
	in := isa.Inst{Op: isa.ADD, Dst: isa.MemOp(isa.RBX, 0), Src: isa.RegOp(isa.RAX)}
	d.Native(&in, nil)
	if d.Stats.MacroOps != 1 || d.Stats.NativeUops != 3 {
		t.Fatalf("stats %+v", d.Stats)
	}
	if d.Stats.Expansion() != 3 {
		t.Fatalf("expansion %f", d.Stats.Expansion())
	}
}

func TestCustomizeInjectsChecks(t *testing.T) {
	var d Decoder
	in := isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.RAX), Src: isa.MemOp(isa.RBX, 0)}
	native := d.Native(&in, nil)
	out, msrom := d.Customize(native, func(u *isa.Uop) CheckDecision {
		return CheckDecision{Inject: true, PID: 7}
	})
	if len(out) != 2 || out[0].Type != isa.UCapCheck || out[1].Type != isa.ULoad {
		t.Fatalf("capCheck must precede the load: %v", out)
	}
	if out[0].PID != 7 || !out[0].Injected {
		t.Fatal("check uop lost its PID/injected mark")
	}
	if msrom {
		t.Fatal("2-uop expansion fits the parallel decoders")
	}
	if d.Stats.InjectedUops != 1 {
		t.Fatal("injection must be counted")
	}

	// A 3-uop RMW with two checks crosses the MSROM threshold.
	in = isa.Inst{Op: isa.ADD, Dst: isa.MemOp(isa.RBX, 0), Src: isa.RegOp(isa.RAX)}
	native = d.Native(&in, nil)
	_, msrom = d.Customize(native, func(u *isa.Uop) CheckDecision {
		return CheckDecision{Inject: true, PID: 7}
	})
	if !msrom {
		t.Fatal("5-uop expansion must come from the MSROM")
	}
}

func TestASanInstrument(t *testing.T) {
	var d Decoder
	in := isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.RAX), Src: isa.MemOp(isa.RBX, 0)}
	native := d.Native(&in, nil)
	native[0].EA = 0x10000
	out := d.ASanInstrument(native, nil)
	if len(out) != 6 {
		t.Fatalf("ASan adds 5 check uops around the access, got %d total", len(out))
	}
	var shadowLoad *isa.Uop
	for i := range out {
		if out[i].Type == isa.ULoad && out[i].Injected {
			shadowLoad = &out[i]
		}
	}
	if shadowLoad == nil {
		t.Fatal("shadow byte load missing")
	}
	if shadowLoad.EA != (0x10000>>3)+ASanShadowBase {
		t.Fatalf("shadow EA %#x", shadowLoad.EA)
	}
}

func TestVariantClassification(t *testing.T) {
	if VariantInsecure.Protected() {
		t.Error("baseline is unprotected")
	}
	for _, v := range []Variant{VariantHardwareOnly, VariantBinaryTranslation,
		VariantMicrocodeAlwaysOn, VariantMicrocodePrediction} {
		if !v.Protected() || !v.UsesTracker() {
			t.Errorf("%v must be protected and use the tracker", v)
		}
	}
	if VariantASan.UsesTracker() {
		t.Error("ASan does not use the pointer tracker")
	}
	if VariantHardwareOnly.InjectsChecks() {
		t.Error("hardware-only checks in the LSU, no injection")
	}
	if !VariantMicrocodePrediction.InjectsChecks() {
		t.Error("microcode variants inject checks")
	}
	_ = core.Always() // keep the core import meaningful: policies pair with decisions
}

func TestMicrocodeFieldUpdates(t *testing.T) {
	var m Microcode
	var d Decoder
	in := isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.RAX), Src: isa.MemOp(isa.RBX, 0), Addr: 0x1000}
	native := d.Native(&in, nil)

	// Empty MSRAM: translation unchanged.
	out, hit := m.Apply(&in, native)
	if hit || len(out) != len(native) {
		t.Fatal("empty MSRAM must not re-route")
	}

	m.Install(LoadFence("zero-day-1", func(rip uint64) bool { return rip >= 0x1000 && rip < 0x2000 }))
	out, hit = m.Apply(&in, native)
	if !hit || len(out) != 2 {
		t.Fatalf("fenced load must expand to 2 uops, got %d (hit=%v)", len(out), hit)
	}
	if out[1].Type != isa.UAlu || !out[1].Injected || out[1].Src1 != isa.RAX {
		t.Fatalf("fence uop malformed: %v", out[1].String())
	}
	if m.Stats.Rerouted != 1 {
		t.Fatal("re-route must be counted")
	}

	// Outside the covered region: untouched.
	far := isa.Inst{Op: isa.MOV, Dst: isa.RegOp(isa.RAX), Src: isa.MemOp(isa.RBX, 0), Addr: 0x9000}
	if _, hit := m.Apply(&far, d.Native(&far, nil)); hit {
		t.Fatal("update must respect its region predicate")
	}

	// Removal restores native translation.
	m.Remove("zero-day-1")
	if m.Len() != 0 {
		t.Fatal("removal failed")
	}
	if _, hit := m.Apply(&in, native); hit {
		t.Fatal("removed update still applied")
	}
}

func TestMicrocodeFirstMatchWins(t *testing.T) {
	var m Microcode
	mk := func(name string, n int) Update {
		return Update{
			Name:  name,
			Match: func(in *isa.Inst) bool { return in.Op == isa.NOP },
			Expand: func(in *isa.Inst, native []isa.Uop) []isa.Uop {
				out := make([]isa.Uop, n)
				for i := range out {
					out[i] = isa.Uop{Type: isa.UNop, Dst: isa.RNone, Src1: isa.RNone, Src2: isa.RNone}
				}
				return out
			},
		}
	}
	m.Install(mk("a", 2))
	m.Install(mk("b", 5))
	in := isa.Inst{Op: isa.NOP}
	out, _ := m.Apply(&in, nil)
	if len(out) != 2 {
		t.Fatalf("installation order must decide precedence, got %d uops", len(out))
	}
}

// TestVariantNamesRoundTrip pins the one variant-name table every CLI
// parses through: each variant's short name resolves back to it, the
// "insecure" alias names the baseline, and an unknown name is refused.
func TestVariantNamesRoundTrip(t *testing.T) {
	for v := Variant(0); v < NumVariants; v++ {
		name := v.ShortName()
		got, ok := ParseVariant(name)
		if !ok || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v; want %v, true", name, got, ok, v)
		}
	}
	if got, ok := ParseVariant("insecure"); !ok || got != VariantInsecure {
		t.Errorf("ParseVariant(%q) = %v, %v; want %v, true", "insecure", got, ok, VariantInsecure)
	}
	if got, ok := ParseVariant("no-such-variant"); ok {
		t.Errorf("ParseVariant(%q) = %v, true; want false", "no-such-variant", got)
	}
}
