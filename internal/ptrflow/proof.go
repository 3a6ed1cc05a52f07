package ptrflow

import (
	"fmt"
	"sort"

	"chex86/internal/asm"
	"chex86/internal/isa"
)

// This file turns an Analysis into a machine-checkable proof bundle: the
// per-block inductive invariant the fixpoint converged to, the region
// summaries it relied on, and one candidate safety proof per dereference
// the analysis believes is always in bounds. The bundle is the *only*
// interface between the analyzer and the elision pass: internal/elide
// re-verifies every claim with its own small checker and discards the
// whole bundle on any mismatch, so a bug in the ~1k lines of fixpoint
// machinery above cannot silently elide an unsafe check (see DESIGN.md
// §11).

// Fact tag names used in serialized proofs. They mirror Tag.String().
const (
	FactBot    = "bot"
	FactNotPtr = "not-ptr"
	FactPtr    = "ptr"
	FactWild   = "wild"
	FactTop    = "top"
)

// Fact is the serialized form of one abstract value: the tag-lattice
// element by name, the owning region for pointers, the interval (numeric
// range, or region-relative offset range for pointers), and the
// init-order taint. The checker consumes Facts structurally — it never
// imports the analyzer's Value operations.
type Fact struct {
	Tag     string   `json:"tag"`
	Region  string   `json:"region,omitempty"`
	Rng     Interval `json:"rng"`
	Assumed bool     `json:"assumed,omitempty"`
}

func factOf(v Value) Fact {
	return Fact{Tag: v.Tag.String(), Region: v.Region, Rng: v.Rng, Assumed: v.Assumed}
}

// SlotFact is one stack-frame slot's fact, keyed by the slot's
// entry-relative RSP offset.
type SlotFact struct {
	Off  int64 `json:"off"`
	Fact Fact  `json:"fact"`
}

// BlockInvariant is the claimed dataflow fact at one basic block's entry.
// Block IDs refer to the CFG BuildCFG derives from the program — the
// checker rebuilds that CFG itself, so the IDs are meaningful to both
// sides without trusting the analyzer's copy.
type BlockInvariant struct {
	Block int `json:"block"`
	// Ctx is the k-limited call-string context the invariant holds in,
	// in pipeline.CallCtx.String() form: "any" for the ⊤ layer (the
	// context-insensitive fixpoint, inductive over the merged Succs
	// graph), "root"/"0x..."/"0x...>0x..." for the context-sensitive
	// layer (inductive over the valid-path call/return edges).
	Ctx   string `json:"ctx"`
	Regs  []Fact `json:"regs"` // indexed by isa.Reg, length isa.NumRegs
	RSPOK bool   `json:"rspOk"`
	RSP   int64  `json:"rsp,omitempty"`
	// FrameOK distinguishes an empty frame (no slot facts) from a
	// destroyed one (slot addressing lost; loads from the frame are top).
	FrameOK bool       `json:"frameOk"`
	Frame   []SlotFact `json:"frame,omitempty"` // sorted by Off
	Free    bool       `json:"free,omitempty"`
}

// RegionClaim is one abstract memory region's claimed store summary. The
// checker recomputes sizes, writability, coverage and the init fact from
// the program image; the Stores fact is the inductive claim it verifies
// against every store in the program.
type RegionClaim struct {
	Name     string `json:"name"`
	Size     uint64 `json:"size,omitempty"` // global byte size; 0 for the heap region
	ReadOnly bool   `json:"readOnly,omitempty"`
	Covered  bool   `json:"covered,omitempty"`
	Init     Fact   `json:"init"`
	Stores   Fact   `json:"stores"`
}

// Proof is one candidate safety proof: the claim that every execution of
// the site dereferences an address inside [Region.base+Lo,
// Region.base+Hi+Size) and that the region is live and (for stores)
// writable there — so the capability check at the site can never fire
// and may be elided. Justification records the fact chain the claim
// rests on; an elided site's decision in the elision report carries it.
type Proof struct {
	Addr     uint64 `json:"addr"`
	MacroIdx uint8  `json:"macroIdx"`
	// Ctx is the calling context the claim holds in ("any" = every
	// context; the proof then rests on the ⊤-layer invariants). A
	// context-qualified proof licenses elision only when the runtime's
	// live call-string fold matches it exactly.
	Ctx           string   `json:"ctx"`
	Store         bool     `json:"store"`
	Region        string   `json:"region"`
	Lo            int64    `json:"lo"`
	Hi            int64    `json:"hi"`
	Size          uint32   `json:"size"`
	Justification []string `json:"justification"`
}

// Bundle is the complete proof-carrying output of one analysis run.
type Bundle struct {
	Harts int `json:"harts"`

	// CtxK is the call-string depth of the context-sensitive layer
	// (-1 = none: only ⊤ invariants and proofs are present). The
	// checker re-derives every context push at this k.
	CtxK int `json:"ctxK"`

	// HeapMinChunk is the claimed lower bound on every heap chunk's size
	// (0 = unknown; heap proofs are impossible). The checker re-derives
	// it from the allocation sites' size arguments.
	HeapMinChunk uint64 `json:"heapMinChunk,omitempty"`

	// AnyFree claims whether any reachable path may release a heap chunk.
	AnyFree bool `json:"anyFree,omitempty"`

	// IndirectBranches counts register-target JMP/CALL instructions in
	// the program; any makes the CFG untrustworthy for elision, so the
	// bundle then carries no proofs.
	IndirectBranches int `json:"indirectBranches,omitempty"`

	// Unresolved lists indirect branches without target hints.
	Unresolved []uint64 `json:"unresolved,omitempty"`

	// Poison is the accumulated contribution of stores with unbounded
	// effective addresses (it joins into every region's summary).
	Poison Fact `json:"poison"`

	Regions    []RegionClaim    `json:"regions"`    // sorted by name
	Invariants []BlockInvariant `json:"invariants"` // ⊤ layer by block, then per-context by (block, ctx)
	Proofs     []Proof          `json:"proofs"`     // ⊤ layer by (addr, macroIdx), then per-context by (addr, macroIdx, ctx)
}

// ProofBundle converts the analysis fixpoint into a serializable proof
// bundle. Sites that fail the safety screen simply have no Proof entry —
// "unknown" is the explicit default, and the pipeline keeps their checks.
func (a *Analysis) ProofBundle() *Bundle {
	b := &Bundle{
		Harts:        a.Harts,
		CtxK:         a.CtxK,
		HeapMinChunk: a.HeapMinChunk,
		AnyFree:      a.AnyFree,
		Poison:       factOf(a.poison),
		Unresolved:   append([]uint64(nil), a.CFG.Unresolved...),
	}
	prog := a.CFG.Prog
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if (in.Op == isa.JMP || in.Op == isa.CALL) && in.Dst.Kind == isa.OpReg {
			b.IndirectBranches++
		}
	}

	for _, rs := range a.RegionSummaries() {
		r := a.regions[rs.Name]
		c := RegionClaim{Name: rs.Name, Covered: r.covered,
			Init: factOf(r.init), Stores: factOf(r.stores)}
		if g := a.globalByName(rs.Name); g != nil {
			c.Size = g.Size
			c.ReadOnly = g.ReadOnly
		}
		b.Regions = append(b.Regions, c)
	}

	for id, st := range a.blockIn {
		if st == nil {
			continue
		}
		b.Invariants = append(b.Invariants, invariantOf(id, ctxAnyName, st))
	}
	// Context-sensitive layer: the discovered (block, context) nodes in
	// canonical (block, context) order — discovery order would also be
	// deterministic, but the sorted form is what the golden-byte test
	// pins and what readers expect.
	ctxKeys := append([]ctxKey(nil), a.ctxOrder...)
	sortCtxKeys(ctxKeys)
	for _, key := range ctxKeys {
		b.Invariants = append(b.Invariants, invariantOf(key.Block, key.Ctx.String(), a.ctxIn[key]))
	}

	// Proofs are meaningless when control flow is not fully resolved:
	// execution could leave the CFG the invariants describe.
	if b.IndirectBranches > 0 || len(b.Unresolved) > 0 {
		return b
	}
	var ctxProofs []Proof
	for _, s := range a.SortedSites() {
		if p, ok := a.candidateProof(s); ok {
			b.Proofs = append(b.Proofs, p)
			// A ⊤ proof already elides the site in every context;
			// per-context proofs there would be redundant weight.
			continue
		}
		for _, sc := range s.SortedCtxs() {
			if p, ok := a.candidateCtxProof(s, sc); ok {
				ctxProofs = append(ctxProofs, p)
			}
		}
	}
	b.Proofs = append(b.Proofs, ctxProofs...)
	return b
}

// ctxAnyName is the serialized ⊤ context (pipeline.CtxAny.String()).
const ctxAnyName = "any"

func sortCtxKeys(keys []ctxKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Block != keys[j].Block {
			return keys[i].Block < keys[j].Block
		}
		return keys[i].Ctx.Less(keys[j].Ctx)
	})
}

func invariantOf(id int, ctx string, st *state) BlockInvariant {
	inv := BlockInvariant{Block: id, Ctx: ctx, RSPOK: st.rspOK, Free: st.free,
		FrameOK: st.frameOK}
	if st.rspOK {
		inv.RSP = st.rsp
	}
	inv.Regs = make([]Fact, isa.NumRegs)
	for i := range st.regs {
		inv.Regs[i] = factOf(st.regs[i])
	}
	for _, sl := range st.frame { // already sorted by offset
		inv.Frame = append(inv.Frame, SlotFact{Off: sl.off, Fact: factOf(sl.v)})
	}
	return inv
}

func (a *Analysis) globalByName(name string) *asm.Global {
	for i := range a.globals {
		if a.globals[i].Name == name {
			return &a.globals[i]
		}
	}
	return nil
}

// candidateProof screens one site against the safety conditions and, when
// every condition holds, emits the proof with its justification chain.
//
// The conditions (re-verified independently by internal/elide):
//
//  1. the joined deref tag is exactly ptr with a known region — the
//     tracker tags the access with a genuine capability on every path, and
//     the capability is the region's (wild or mixed tags keep their check);
//  2. every path attributes the effective address to that same region
//     with a finite offset interval [Lo, Hi], Lo >= 0;
//  3. Hi + access size fits inside the region: a global's declared size,
//     or the provable minimum heap-chunk size for heap pointers;
//  4. stores additionally require the region to be writable;
//  5. heap accesses additionally require temporal liveness: no release
//     (free/realloc/unknown call) on any path to the site, and under
//     concurrency no release anywhere in the program.
//
// The init-order (Assumed) taint is deliberately *not* disqualifying: the
// elision claim constrains only runtime values the tracker actually
// tagged, and a value read before its initializing store is untagged —
// its dereference gets no capability check with or without elision.
func (a *Analysis) candidateProof(s *Site) (Proof, bool) {
	if !s.Reached {
		return Proof{}, false
	}
	return a.screenProof(s.Addr, s.MacroIdx, ctxAnyName, s.Store, s.Deref, s.EA)
}

// candidateCtxProof screens one site under one calling context: the same
// conditions, over the facts joined along only that context's paths —
// including the temporal release bit, which is per-path state and often
// the fact context sensitivity recovers.
func (a *Analysis) candidateCtxProof(s *Site, sc *SiteCtx) (Proof, bool) {
	return a.screenProof(s.Addr, s.MacroIdx, sc.Ctx.String(), s.Store, sc.Deref, sc.EA)
}

func (a *Analysis) screenProof(addr uint64, macroIdx uint8, ctx string, store bool, deref Value, ea eaFact) (Proof, bool) {
	if deref.Tag != TagPtr || deref.Region == "" {
		return Proof{}, false
	}
	if !ea.OK || ea.Region != deref.Region || !ea.Off.Bounded() || ea.Off.Lo < 0 {
		return Proof{}, false
	}

	var (
		size uint64
		just []string
	)
	kind := "load"
	if store {
		kind = "store"
	}
	just = append(just,
		fmt.Sprintf("deref tag is ptr(%s) on every path", ea.Region),
		fmt.Sprintf("%s address = %s+%s, width %d", kind, ea.Region, ea.Off, ea.Size))

	if ctx != ctxAnyName {
		just = append(just, fmt.Sprintf("claim restricted to calling context %s", ctx))
	}

	if ea.Region == HeapRegion {
		if a.HeapMinChunk == 0 {
			return Proof{}, false
		}
		size = a.HeapMinChunk
		if ea.Free || (a.Harts > 1 && a.AnyFree) {
			return Proof{}, false
		}
		just = append(just,
			fmt.Sprintf("every heap chunk spans >= %d bytes (min allocation-size argument)", size))
		if a.AnyFree {
			just = append(just, "no free/realloc/unknown call on any path to the site")
		} else {
			just = append(just, "no reachable path releases a heap chunk")
		}
	} else {
		g := a.globalByName(ea.Region)
		if g == nil || g.Size == 0 {
			return Proof{}, false
		}
		size = g.Size
		if store && g.ReadOnly {
			return Proof{}, false
		}
		just = append(just, fmt.Sprintf("global %s spans %d bytes", g.Name, g.Size))
		if store {
			just = append(just, fmt.Sprintf("global %s is writable", g.Name))
		}
	}

	end := satAdd(ea.Off.Hi, int64(ea.Size))
	if end == posInf || end < 0 || uint64(end) > size {
		return Proof{}, false
	}
	just = append(just,
		fmt.Sprintf("bounds: 0 <= %d and %d+%d <= %d", ea.Off.Lo, ea.Off.Hi, ea.Size, size),
		"control flow fully resolved: no indirect branches")

	return Proof{Addr: addr, MacroIdx: macroIdx, Ctx: ctx, Store: store,
		Region: ea.Region, Lo: ea.Off.Lo, Hi: ea.Off.Hi, Size: ea.Size,
		Justification: just}, true
}
