// Package lockstep is the observational-correctness harness: it runs
// guest programs through the full pipeline simulator and a standalone
// reference emulator side by side, diffing the committed architectural
// stream record by record and full machine snapshots at configurable
// commit strides, while continuously auditing the capability-table
// invariants the CHEx86 design promises. Every program runs under a
// matrix of conditions — protection variant × proof-carrying elision
// on/off × μop-cache on/off — and the violation reports across a
// variant's conditions must be identical in every field (elision and the
// translation cache must never change observable behavior). It is the
// one violation-report differential: RunGenome serves generated programs
// (internal/lockstep/progen), and RunProgram serves the security suites'
// exploits and probes (internal/security). Failing generated programs are
// minimized by deterministic step removal (shrink.go) and persisted to a
// content-addressed corpus (corpus.go).
package lockstep

import (
	"fmt"
	"strings"

	"chex86/internal/asm"
	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/elide"
	"chex86/internal/emu"
	"chex86/internal/lockstep/progen"
	"chex86/internal/pipeline"
)

// Condition is one cell of the run matrix.
type Condition struct {
	Variant    decode.Variant `json:"variant"`
	Elide      bool           `json:"elide,omitempty"`
	NoUopCache bool           `json:"noUopCache,omitempty"`
}

// Name renders a short stable identifier ("prediction+elide-uop").
func (c Condition) Name() string {
	var b strings.Builder
	switch c.Variant {
	case decode.VariantInsecure:
		b.WriteString("insecure")
	case decode.VariantMicrocodeAlwaysOn:
		b.WriteString("always-on")
	case decode.VariantMicrocodePrediction:
		b.WriteString("prediction")
	default:
		fmt.Fprintf(&b, "variant%d", c.Variant)
	}
	if c.Elide {
		b.WriteString("+elide")
	}
	if c.NoUopCache {
		b.WriteString("-uop")
	}
	return b.String()
}

// DefaultConditions is the acceptance matrix: insecure / always-on /
// prediction × elision on/off × μop-cache on/off (elision is meaningless
// without a tracker, so the insecure variant only toggles the cache) —
// ten conditions per program.
func DefaultConditions() []Condition {
	out := []Condition{
		{Variant: decode.VariantInsecure},
		{Variant: decode.VariantInsecure, NoUopCache: true},
	}
	for _, v := range []decode.Variant{decode.VariantMicrocodeAlwaysOn, decode.VariantMicrocodePrediction} {
		for _, el := range []bool{false, true} {
			for _, nuc := range []bool{false, true} {
				out = append(out, Condition{Variant: v, Elide: el, NoUopCache: nuc})
			}
		}
	}
	return out
}

// RunOptions configures one lockstep execution.
type RunOptions struct {
	// Stride is the commit interval for full-snapshot diffing and
	// invariant auditing (default 64; every commit is still record-diffed).
	Stride uint64
	// MaxInsts bounds each run (default 500k macro-ops).
	MaxInsts uint64
	// Tamper, when set, corrupts the harness's view of each pipeline
	// commit before diffing. It exists for the harness's own mutation
	// test — proving a broken pipeline is caught and shrunk — and is
	// never set in production sweeps.
	Tamper func(rec *emu.Rec)
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Stride == 0 {
		o.Stride = 64
	}
	if o.MaxInsts == 0 {
		o.MaxInsts = 500_000
	}
	return o
}

// Divergence describes the first observed disagreement between the
// pipeline and the reference emulator.
type Divergence struct {
	Cond   string `json:"cond"`
	Seq    uint64 `json:"seq"`
	Detail string `json:"detail"`
	// Tail holds the last agreed-on committed records before the
	// divergence — the common prefix of both traces.
	Tail []string `json:"tail,omitempty"`
}

func (d *Divergence) String() string {
	return fmt.Sprintf("[%s] seq=%d: %s", d.Cond, d.Seq, d.Detail)
}

// VioSummary is the observable part of a capability violation — every
// field of core.Violation, all of which must be identical across elision
// and μop-cache toggles.
type VioSummary struct {
	Kind string `json:"kind"`
	PID  int64  `json:"pid"`
	EA   uint64 `json:"ea"`
	RIP  uint64 `json:"rip"`
	Msg  string `json:"msg"`
}

func vioSummaries(vs []*core.Violation) []VioSummary {
	out := make([]VioSummary, len(vs))
	for i, v := range vs {
		out[i] = VioSummary{Kind: v.Kind.String(), PID: int64(v.PID), EA: v.EA, RIP: v.RIP, Msg: v.Msg}
	}
	return out
}

// renderVios flattens a violation list into one comparable string.
func renderVios(vs []VioSummary) string {
	if len(vs) == 0 {
		return "none"
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%s(pid=%d ea=%#x rip=%#x msg=%q)", v.Kind, v.PID, v.EA, v.RIP, v.Msg)
	}
	return strings.Join(parts, ";")
}

// CondResult is the outcome of one program under one condition.
type CondResult struct {
	Cond       Condition    `json:"cond"`
	Name       string       `json:"name"`
	Commits    uint64       `json:"commits"`
	Elided     int          `json:"elided,omitempty"`
	Violations []VioSummary `json:"violations,omitempty"`
	Divergence *Divergence  `json:"divergence,omitempty"`
	Invariants []string     `json:"invariants,omitempty"`
	Err        string       `json:"err,omitempty"`
}

// tailRing keeps the last n formatted records for divergence context.
type tailRing struct {
	buf  []string
	next int
	full bool
}

func newTailRing(n int) *tailRing { return &tailRing{buf: make([]string, n)} }

func (t *tailRing) push(s string) {
	t.buf[t.next] = s
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
}

func (t *tailRing) list() []string {
	if !t.full {
		return append([]string(nil), t.buf[:t.next]...)
	}
	out := make([]string, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// fmtRec renders one committed record for trace tails and diff reports.
func fmtRec(r *emu.Rec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d c%d %v@%#x", r.Seq, r.Core, r.Inst.Op, r.Inst.Addr)
	if r.HasEA {
		fmt.Fprintf(&b, " ea=%#x", r.EA)
	}
	if r.HasVal {
		fmt.Fprintf(&b, " val=%#x", r.Val)
	}
	if r.StoreVal != 0 {
		fmt.Fprintf(&b, " st=%#x", r.StoreVal)
	}
	if r.Taken {
		fmt.Fprintf(&b, " taken->%#x", r.Target)
	}
	if r.Event != emu.EvNone {
		fmt.Fprintf(&b, " ev=%v pid=%d base=%#x size=%d", r.Event, r.AllocPID, r.AllocBase, r.AllocSize)
	}
	return b.String()
}

// diffRec compares the pipeline's committed record against the
// reference's, returning a description of the first mismatching field or
// "" when identical.
func diffRec(p, r *emu.Rec) string {
	mismatch := func(field string, pv, rv any) string {
		return fmt.Sprintf("%s: pipeline %v != reference %v (pipeline rec: %s | reference rec: %s)",
			field, pv, rv, fmtRec(p), fmtRec(r))
	}
	switch {
	case p.Seq != r.Seq:
		return mismatch("seq", p.Seq, r.Seq)
	case p.Core != r.Core:
		return mismatch("core", p.Core, r.Core)
	case p.Inst.Addr != r.Inst.Addr:
		return mismatch("inst.addr", fmt.Sprintf("%#x", p.Inst.Addr), fmt.Sprintf("%#x", r.Inst.Addr))
	case p.Inst.Op != r.Inst.Op:
		return mismatch("inst.op", p.Inst.Op, r.Inst.Op)
	case p.HasEA != r.HasEA:
		return mismatch("hasEA", p.HasEA, r.HasEA)
	case p.EA != r.EA:
		return mismatch("ea", fmt.Sprintf("%#x", p.EA), fmt.Sprintf("%#x", r.EA))
	case p.HasVal != r.HasVal:
		return mismatch("hasVal", p.HasVal, r.HasVal)
	case p.Val != r.Val:
		return mismatch("val", fmt.Sprintf("%#x", p.Val), fmt.Sprintf("%#x", r.Val))
	case p.StoreVal != r.StoreVal:
		return mismatch("storeVal", fmt.Sprintf("%#x", p.StoreVal), fmt.Sprintf("%#x", r.StoreVal))
	case p.Taken != r.Taken:
		return mismatch("taken", p.Taken, r.Taken)
	case p.Target != r.Target:
		return mismatch("target", fmt.Sprintf("%#x", p.Target), fmt.Sprintf("%#x", r.Target))
	case p.Event != r.Event:
		return mismatch("event", p.Event, r.Event)
	case p.AllocPID != r.AllocPID:
		return mismatch("allocPID", p.AllocPID, r.AllocPID)
	case p.AllocBase != r.AllocBase:
		return mismatch("allocBase", fmt.Sprintf("%#x", p.AllocBase), fmt.Sprintf("%#x", r.AllocBase))
	case p.AllocSize != r.AllocSize:
		return mismatch("allocSize", p.AllocSize, r.AllocSize)
	}
	return ""
}

// runConditionProg executes a prebuilt program under one condition with
// a reference emulator in lockstep, returning the condition result. A
// divergence stops diffing (the first one is the report) but the run
// completes so violation reports stay comparable.
func runConditionProg(prog *asm.Program, cond Condition, opt RunOptions) *CondResult {
	opt = opt.withDefaults()
	res := &CondResult{Cond: cond, Name: cond.Name()}

	cfg := pipeline.DefaultConfig()
	cfg.Variant = cond.Variant
	cfg.MaxInsts = opt.MaxInsts
	cfg.NoUopCache = cond.NoUopCache
	var erep *elide.Report
	if cond.Elide {
		rep, err := elide.ForProgram(prog, elide.Options{Harts: 1})
		if err != nil {
			res.Err = fmt.Sprintf("elide: %v", err)
			return res
		}
		erep = rep
		cfg.ElideChecks = true
		cfg.ElisionDigest = rep.Digest
	}
	sim, err := pipeline.NewSim(prog, cfg, 1)
	if err != nil {
		res.Err = fmt.Sprintf("sim: %v", err)
		return res
	}
	if erep != nil {
		sim.SetElisionMap(erep.Map)
		res.Elided = erep.Stats.Elided
	}
	ref := emu.New(prog, emu.Options{Harts: 1, MaxInsts: opt.MaxInsts})

	tail := newTailRing(8)
	diverge := func(seq uint64, detail string) {
		if res.Divergence == nil {
			res.Divergence = &Divergence{Cond: res.Name, Seq: seq, Detail: detail, Tail: tail.list()}
		}
	}
	sim.TraceCommit = func(rec *emu.Rec) {
		if res.Divergence != nil {
			return
		}
		view := *rec
		if opt.Tamper != nil {
			opt.Tamper(&view)
		}
		refRec, refErr := ref.Step()
		if refErr != nil {
			diverge(view.Seq, fmt.Sprintf("reference faulted while pipeline committed %s: %v", fmtRec(&view), refErr))
			return
		}
		if refRec == nil {
			diverge(view.Seq, "reference exhausted while pipeline committed "+fmtRec(&view))
			return
		}
		defer ref.Recycle(refRec)
		if d := diffRec(&view, refRec); d != "" {
			diverge(view.Seq, d)
			return
		}
		tail.push(fmtRec(refRec))
		res.Commits++
		if res.Commits%opt.Stride == 0 {
			if ds := sim.M.Snapshot().Diff(ref.Snapshot()); len(ds) > 0 {
				diverge(view.Seq, "snapshot: "+strings.Join(ds, "; "))
				return
			}
			res.Invariants = append(res.Invariants, auditInvariants(sim)...)
		}
	}

	_, runErr := sim.Run()
	switch e := runErr.(type) {
	case nil:
		// The pipeline drained cleanly; the reference must be exhausted
		// (or at its identical budget) too.
		if res.Divergence == nil {
			refRec, refErr := ref.Step()
			if refErr != nil {
				diverge(res.Commits, fmt.Sprintf("reference faulted after pipeline completed: %v", refErr))
			} else if refRec != nil {
				diverge(res.Commits, "pipeline exhausted while reference would commit "+fmtRec(refRec))
				ref.Recycle(refRec)
			}
		}
	case *emu.Fault:
		// A functional fault must reproduce structurally on the reference.
		if res.Divergence == nil {
			refRec, refErr := ref.Step()
			if refRec != nil {
				ref.Recycle(refRec)
			}
			rf, ok := refErr.(*emu.Fault)
			switch {
			case !ok && refErr != nil:
				diverge(res.Commits, fmt.Sprintf("pipeline faulted (%v) but reference errored differently: %v", e, refErr))
			case !ok:
				diverge(res.Commits, fmt.Sprintf("pipeline faulted (%v) but reference did not", e))
			case rf.Kind != e.Kind || rf.Addr != e.Addr || rf.RIP != e.RIP:
				diverge(res.Commits, fmt.Sprintf("fault mismatch: pipeline kind=%v addr=%#x rip=%#x != reference kind=%v addr=%#x rip=%#x",
					e.Kind, e.Addr, e.RIP, rf.Kind, rf.Addr, rf.RIP))
			}
		}
	default:
		res.Err = fmt.Sprintf("run: %v", runErr)
	}
	if res.Divergence == nil && res.Err == "" {
		if ds := sim.M.Snapshot().Diff(ref.Snapshot()); len(ds) > 0 {
			diverge(res.Commits, "final snapshot: "+strings.Join(ds, "; "))
		}
		res.Invariants = append(res.Invariants, auditInvariants(sim)...)
	}
	res.Violations = vioSummaries(sim.Violations)
	return res
}

// Failure classifies why a program failed the harness.
type Failure struct {
	// Kind is one of "build", "error", "divergence", "invariant",
	// "report-mismatch", "false-positive", "label".
	Kind   string `json:"kind"`
	Cond   string `json:"cond,omitempty"`
	Detail string `json:"detail"`
}

func (f *Failure) String() string {
	if f.Cond != "" {
		return fmt.Sprintf("%s [%s]: %s", f.Kind, f.Cond, f.Detail)
	}
	return f.Kind + ": " + f.Detail
}

// ProgramResult is the matrix outcome for one program.
type ProgramResult struct {
	Conds   []*CondResult `json:"conds,omitempty"`
	Failure *Failure      `json:"failure,omitempty"`
	Commits uint64        `json:"commits"`
	Elided  int           `json:"elided"`
}

// RunGenome builds the genome and runs it through RunProgram, labeled
// with its mutation's violation class.
func RunGenome(g *progen.Genome, conds []Condition, opt RunOptions) *ProgramResult {
	prog, err := g.Build()
	if err != nil {
		return &ProgramResult{Failure: &Failure{Kind: "build", Detail: err.Error()}}
	}
	return RunProgram(prog, g.Mutation.Expect(), conds, opt)
}

// RunProgram runs a built program under every condition, then classifies
// the aggregate outcome against expect, the violation class the program
// carries (core.VNone for a safe program):
//
//   - no run may diverge from the reference, fault the harness, or trip
//     an invariant audit;
//   - within a variant, every condition (elision ×, μop cache ×) must
//     produce an identical violation report;
//   - the insecure baseline must observe zero violations;
//   - a safe program must be violation-free everywhere (no false
//     positives), and a labeled program's class must be the first
//     violation under every protected variant.
func RunProgram(prog *asm.Program, expect core.ViolationKind, conds []Condition, opt RunOptions) *ProgramResult {
	if len(conds) == 0 {
		conds = DefaultConditions()
	}
	pr := &ProgramResult{}
	for _, c := range conds {
		rc := runConditionProg(prog, c, opt)
		pr.Conds = append(pr.Conds, rc)
		pr.Commits += rc.Commits
		pr.Elided += rc.Elided
	}
	pr.Failure = classify(expect, pr.Conds)
	return pr
}

func classify(expect core.ViolationKind, conds []*CondResult) *Failure {
	for _, rc := range conds {
		if rc.Err != "" {
			return &Failure{Kind: "error", Cond: rc.Name, Detail: rc.Err}
		}
		if rc.Divergence != nil {
			return &Failure{Kind: "divergence", Cond: rc.Name, Detail: rc.Divergence.Detail}
		}
		if len(rc.Invariants) > 0 {
			return &Failure{Kind: "invariant", Cond: rc.Name, Detail: strings.Join(rc.Invariants, "; ")}
		}
	}
	// Per-variant observational identity: elision and the μop cache must
	// never change the violation report.
	type base struct {
		name string
		vios string
	}
	byVariant := make(map[decode.Variant]base)
	for _, rc := range conds {
		r := renderVios(rc.Violations)
		if b, ok := byVariant[rc.Cond.Variant]; ok {
			if b.vios != r {
				return &Failure{Kind: "report-mismatch", Cond: rc.Name,
					Detail: fmt.Sprintf("violations differ within variant: %s=[%s] vs %s=[%s]", b.name, b.vios, rc.Name, r)}
			}
		} else {
			byVariant[rc.Cond.Variant] = base{name: rc.Name, vios: r}
		}
	}
	for _, rc := range conds {
		switch {
		case rc.Cond.Variant == decode.VariantInsecure && len(rc.Violations) > 0:
			return &Failure{Kind: "error", Cond: rc.Name,
				Detail: "insecure baseline reported violations: " + renderVios(rc.Violations)}
		case rc.Cond.Variant != decode.VariantInsecure && expect == core.VNone && len(rc.Violations) > 0:
			return &Failure{Kind: "false-positive", Cond: rc.Name,
				Detail: "safe program flagged: " + renderVios(rc.Violations)}
		case rc.Cond.Variant != decode.VariantInsecure && expect != core.VNone:
			if len(rc.Violations) == 0 {
				return &Failure{Kind: "label", Cond: rc.Name,
					Detail: fmt.Sprintf("expected %s violation escaped detection", expect)}
			}
			if rc.Violations[0].Kind != expect.String() {
				return &Failure{Kind: "label", Cond: rc.Name,
					Detail: fmt.Sprintf("flagged as %s, want %s", rc.Violations[0].Kind, expect)}
			}
		}
	}
	return nil
}
