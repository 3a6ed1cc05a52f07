package ptrflow

import (
	"sort"

	"chex86/internal/asm"
	"chex86/internal/isa"
)

// Block is one basic block: the half-open instruction index range
// [Start, End) over Program.Insts, ending either at a control transfer or
// immediately before the next leader.
type Block struct {
	ID    int
	Start int // first instruction index
	End   int // one past the last instruction index

	// Succs are the dataflow successor blocks. For internal calls this is
	// the callee entry (the return site is reached through the callee's
	// RET edges); for RETs it is every return site of the enclosing
	// functions; for external calls it is the fall-through.
	Succs []int

	// IntraSuccs are the intraprocedural successors used for function-
	// membership discovery: internal calls continue at their return site
	// and RETs terminate the walk.
	IntraSuccs []int

	// Cond, TakenSucc and FallSucc describe a terminating conditional
	// branch for edge-sensitive refinement: TakenSucc/FallSucc are the
	// successor block IDs of the taken and fall-through edges (-1 when
	// the block does not end in a JCC, and possibly equal when the
	// branch targets its own fall-through). Succs deduplicates, so these
	// carry the edge identity Succs cannot.
	Cond      isa.Cond
	TakenSucc int
	FallSucc  int

	// CallSite, Callees and CallFall describe a terminating internal
	// call for context-sensitive valid-path matching: CallSite is the
	// CALL instruction's address (the element pushed onto the call
	// string), Callees the entry block IDs of the possible callees, and
	// CallFall the return-site block (-1 when the call is the last
	// instruction of text). Zero/nil/-1 when the block does not end in a
	// resolved internal CALL — external and unresolved-indirect calls
	// are summarized, not descended into, so they push nothing.
	CallSite uint64
	Callees  []int
	CallFall int
}

// CFG is the control-flow graph of a guest program at macro-op
// granularity, with interprocedural call/return edges resolved from
// direct targets, indirect-branch hint sets, and function discovery.
type CFG struct {
	Prog   *asm.Program
	Blocks []Block

	// Entries are the block IDs of the hart entry points (thread<i>
	// labels, or the text base).
	Entries []int

	// FuncEntries are the addresses discovered as function entry points
	// (call targets).
	FuncEntries []uint64

	// Unresolved lists the addresses of indirect branches with no hint
	// set: their successors are unknown, so code reachable only through
	// them is invisible to the analysis (reported, never silently
	// ignored).
	Unresolved []uint64

	// FuncEntryBlocks maps each function entry address to its entry
	// block ID (entries whose address decodes to no instruction are
	// absent).
	FuncEntryBlocks map[uint64]int

	// RetOwners maps each RET-terminated block to the entry addresses of
	// the functions whose intraprocedural walk reaches it (sorted). A
	// context-sensitive analysis matches a RET under context c back to
	// exactly the callers of these owners that produced c, instead of
	// the merged Succs return edges.
	RetOwners map[int][]uint64

	blockOf []int // instruction index -> block ID
}

// BlockAt returns the block containing the instruction at addr, or nil.
func (g *CFG) BlockAt(addr uint64) *Block {
	in := g.Prog.At(addr)
	if in == nil {
		return nil
	}
	idx := int((addr - g.Prog.TextBase) / uint64(in.EncLen))
	if idx < 0 || idx >= len(g.blockOf) {
		return nil
	}
	return &g.Blocks[g.blockOf[idx]]
}

// instIndex maps an instruction address to its index, or -1.
func instIndex(p *asm.Program, addr uint64) int {
	in := p.At(addr)
	if in == nil {
		return -1
	}
	for i := range p.Insts {
		if p.Insts[i].Addr == addr {
			return i
		}
	}
	return -1
}

// isExternalCall reports whether a direct CALL leaves program text (the
// modeled allocator entry points live outside it).
func isExternalCall(p *asm.Program, in *isa.Inst) bool {
	return in.Op == isa.CALL && in.Dst.Kind != isa.OpReg && p.At(in.Target) == nil
}

// endsBlock reports whether the instruction terminates a basic block.
func endsBlock(in *isa.Inst) bool {
	return in.Op.IsBranch() || in.Op == isa.HLT
}

// BuildCFG constructs the control-flow graph for prog with the given hart
// count. Indirect branches get no edges; each is listed in Unresolved.
func BuildCFG(prog *asm.Program, harts int) *CFG {
	g := &CFG{Prog: prog}
	n := len(prog.Insts)
	if n == 0 {
		return g
	}
	if harts <= 0 {
		harts = 1
	}

	// --- Leaders: entries, branch targets, post-branch fall-throughs. ---
	leader := make([]bool, n)
	markAddr := func(addr uint64) {
		if i := instIndex(prog, addr); i >= 0 {
			leader[i] = true
		}
	}

	var entryAddrs []uint64
	for t := 0; t < harts; t++ {
		addr := prog.TextBase
		if a, ok := prog.Lookup(labelThread(t)); ok {
			addr = a
		}
		entryAddrs = append(entryAddrs, addr)
		markAddr(addr)
	}

	funcSet := map[uint64]bool{}
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if !endsBlock(in) {
			continue
		}
		if i+1 < n {
			leader[i+1] = true
		}
		switch in.Op {
		case isa.JMP, isa.JCC:
			if in.Dst.Kind != isa.OpReg {
				markAddr(in.Target)
			}
		case isa.CALL:
			if in.Dst.Kind != isa.OpReg && prog.At(in.Target) != nil {
				markAddr(in.Target)
				funcSet[in.Target] = true
			}
		}
		if in.Dst.Kind == isa.OpReg && (in.Op == isa.JMP || in.Op == isa.CALL) {
			g.Unresolved = append(g.Unresolved, in.Addr)
		}
	}
	leader[0] = true

	// --- Carve blocks. ---
	g.blockOf = make([]int, n)
	start := 0
	for i := 0; i < n; i++ {
		endHere := endsBlock(&prog.Insts[i]) || i == n-1 || leader[i+1]
		if !endHere {
			continue
		}
		id := len(g.Blocks)
		g.Blocks = append(g.Blocks, Block{ID: id, Start: start, End: i + 1,
			TakenSucc: -1, FallSucc: -1, CallFall: -1})
		for j := start; j <= i; j++ {
			g.blockOf[j] = id
		}
		start = i + 1
	}

	blockAtIdx := func(i int) int {
		if i < 0 || i >= n {
			return -1
		}
		return g.blockOf[i]
	}
	addSucc := func(list []int, id int) []int {
		if id < 0 {
			return list
		}
		for _, s := range list {
			if s == id {
				return list
			}
		}
		return append(list, id)
	}

	// --- Successors (RET edges filled after function discovery). ---
	type retInfo struct{ block int }
	var rets []retInfo
	// retSites[f] lists the fall-through blocks of calls to function f.
	retSites := map[uint64][]int{}

	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		last := &prog.Insts[b.End-1]
		fall := blockAtIdx(b.End) // block after this one, if any

		switch {
		case last.Op == isa.JMP && last.Dst.Kind != isa.OpReg:
			t := blockAtIdx(instIndex(prog, last.Target))
			b.Succs = addSucc(b.Succs, t)
			b.IntraSuccs = addSucc(b.IntraSuccs, t)

		case last.Op == isa.JCC:
			t := blockAtIdx(instIndex(prog, last.Target))
			b.Succs = addSucc(addSucc(b.Succs, t), fall)
			b.IntraSuccs = addSucc(addSucc(b.IntraSuccs, t), fall)
			b.Cond = last.Cond
			b.TakenSucc = t
			b.FallSucc = fall

		case last.Op == isa.JMP:
			// indirect: unresolved, no successors

		case last.Op == isa.CALL:
			if last.Dst.Kind == isa.OpReg || prog.At(last.Target) == nil {
				// External (or unresolved indirect) call: the callee is
				// summarized by the transfer function; control continues
				// at the return site.
				b.Succs = addSucc(b.Succs, fall)
				b.IntraSuccs = addSucc(b.IntraSuccs, fall)
				break
			}
			b.CallSite = last.Addr
			b.CallFall = fall
			id := blockAtIdx(instIndex(prog, last.Target))
			b.Succs = addSucc(b.Succs, id)
			b.Callees = addSucc(b.Callees, id)
			if fall >= 0 {
				retSites[last.Target] = append(retSites[last.Target], fall)
			}
			// Intraprocedurally the caller resumes at the return site.
			b.IntraSuccs = addSucc(b.IntraSuccs, fall)

		case last.Op == isa.RET:
			rets = append(rets, retInfo{block: bi})

		case last.Op == isa.HLT:
			// no successors

		default:
			// Fall-through (next instruction is a leader), or trace end:
			// the final instruction of text without a terminator has no
			// successor — execution falls off the decoded trace.
			b.Succs = addSucc(b.Succs, fall)
			b.IntraSuccs = addSucc(b.IntraSuccs, fall)
		}
	}

	// --- Function discovery: which functions contain each RET. ---
	for f := range funcSet {
		g.FuncEntries = append(g.FuncEntries, f)
	}
	sort.Slice(g.FuncEntries, func(i, j int) bool { return g.FuncEntries[i] < g.FuncEntries[j] })

	owners := map[int][]uint64{} // RET block -> owning function entries
	g.FuncEntryBlocks = map[uint64]int{}
	for _, f := range g.FuncEntries {
		entry := blockAtIdx(instIndex(prog, f))
		if entry < 0 {
			continue
		}
		g.FuncEntryBlocks[f] = entry
		seen := make(map[int]bool)
		stack := []int{entry}
		for len(stack) > 0 {
			bi := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[bi] {
				continue
			}
			seen[bi] = true
			b := &g.Blocks[bi]
			if prog.Insts[b.End-1].Op == isa.RET {
				owners[bi] = append(owners[bi], f)
				continue
			}
			stack = append(stack, b.IntraSuccs...)
		}
	}
	for _, r := range rets {
		b := &g.Blocks[r.block]
		for _, f := range owners[r.block] {
			for _, site := range retSites[f] {
				b.Succs = addSucc(b.Succs, site)
			}
		}
	}
	// owners was built by iterating sorted FuncEntries, so each list is
	// already in ascending entry-address order — deterministic for the
	// per-context return matching that consumes it.
	g.RetOwners = owners

	for _, a := range entryAddrs {
		if id := blockAtIdx(instIndex(prog, a)); id >= 0 {
			g.Entries = addSucc(g.Entries, id)
		}
	}
	sort.Slice(g.Unresolved, func(i, j int) bool { return g.Unresolved[i] < g.Unresolved[j] })
	return g
}

func labelThread(t int) string {
	const digits = "0123456789"
	if t < 10 {
		return "thread" + digits[t:t+1]
	}
	// Multi-digit hart IDs (not used by the current catalog, but cheap).
	s := ""
	for t > 0 {
		s = digits[t%10:t%10+1] + s
		t /= 10
	}
	return "thread" + s
}
