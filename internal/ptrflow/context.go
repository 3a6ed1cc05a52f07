package ptrflow

import (
	"fmt"
	"sort"

	"chex86/internal/decode"
	"chex86/internal/isa"
	"chex86/internal/pipeline"
	"chex86/internal/tracker"
)

// This file implements the k-limited call-string context-sensitive pass
// (DESIGN.md §14). It runs after the context-insensitive fixpoint and
// reuses its region summaries frozen: regions model shared memory whose
// contents outlive any particular calling context, so a per-context
// region summary would be unsound the moment two contexts interleave at
// runtime. What the pass sharpens is everything path-local — register
// tags, intervals, stack slots, and the release bit — by analyzing each
// function once per reachable call-string context with valid-path
// call/return matching: a RET under context c propagates only to the
// callers whose push produced c, never to the other callers the merged
// Succs graph would smear it over.

// ctxKey identifies one (basic block, call-string context) analysis
// node.
type ctxKey struct {
	Block int
	Ctx   pipeline.CallCtx
}

// callerEdge is one registered call into a function: the caller's call
// block and the context the caller was analyzed under. The callee's
// context is Ctx.PushK(site, k); a RET matched back through this edge
// resumes at the call block's fall-through under Ctx — the valid-path
// return.
type callerEdge struct {
	Block int
	Ctx   pipeline.CallCtx
}

// retMatch keys the caller registry by (function entry address, callee
// context).
type retMatch struct {
	Func uint64
	Ctx  pipeline.CallCtx
}

// SiteCtx is the static classification of one memory micro-op in one
// calling context.
type SiteCtx struct {
	Ctx     pipeline.CallCtx
	Verdict Verdict
	Assumed bool
	Deref   Value
	EA      eaFact
}

// SortedCtxs returns the site's per-context records in canonical
// context order (nil when the analysis ran context-insensitively).
func (s *Site) SortedCtxs() []*SiteCtx {
	if len(s.Ctxs) == 0 {
		return nil
	}
	out := make([]*SiteCtx, 0, len(s.Ctxs))
	for _, sc := range s.Ctxs {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ctx.Less(out[j].Ctx) })
	return out
}

// edgeState produces the outgoing state along one successor edge,
// applying conditional-branch refinement on JCC edges: the refined state
// is written into buf, which is returned; an unrefined edge returns st
// itself. When the taken and fall-through edges reach the same block the
// refinements would have to be joined back together, which is the
// unrefined state — so refinement is skipped there.
func edgeState(b *Block, st *state, cmp cmpFact, succ int, buf *state) *state {
	if cmp.ok && b.TakenSucc >= 0 && b.TakenSucc != b.FallSucc &&
		(succ == b.TakenSucc || succ == b.FallSucc) {
		buf.copyFrom(st)
		refineByCond(buf, cmp, b.Cond, succ == b.TakenSucc)
		return buf
	}
	return st
}

// entryAddrOf returns the address of a block's first instruction.
func entryAddrOf(g *CFG, block int) uint64 {
	return g.Prog.Insts[g.Blocks[block].Start].Addr
}

// analyzeContexts runs the context-sensitive fixpoint, the descending
// narrowing sweeps, and the per-context site collection. Regions and
// poison are frozen (a.frozen is set by the caller), so the pass never
// restarts and never perturbs the context-insensitive layer's results.
func (a *Analysis) analyzeContexts(db *tracker.RuleDB, dec *decode.Decoder, buf *[]isa.Uop, maxTransfers int) error {
	g := a.CFG
	k := a.CtxK
	root := pipeline.CtxRoot

	// funcRets[f] lists the RET blocks owned by function f, in block
	// order (derived from the deterministic RetOwners construction).
	funcRets := map[uint64][]int{}
	for id := range g.Blocks {
		for _, f := range g.RetOwners[id] {
			funcRets[f] = append(funcRets[f], id)
		}
	}

	in := map[ctxKey]*state{}
	var order []ctxKey // discovery order: the deterministic iteration spine
	joins := map[ctxKey]int{}
	dirty := map[ctxKey]bool{}
	var work []ctxKey
	push := func(key ctxKey) {
		if !dirty[key] {
			dirty[key] = true
			work = append(work, key)
		}
	}
	// add joins an edge state into a node, widening after the usual
	// tolerance, and schedules the node when it changed.
	add := func(key ctxKey, es *state) {
		if cur, ok := in[key]; !ok {
			in[key] = es.clone()
			order = append(order, key)
			push(key)
		} else if cur.joinInto(es, joins[key] >= widenAfter) {
			joins[key]++
			push(key)
		}
	}

	callers := map[retMatch][]callerEdge{}
	// registerCaller records a call edge; a newly seen caller re-pushes
	// the callee's already-analyzed RET nodes so their out-states reach
	// the new return site.
	registerCaller := func(f uint64, calleeCtx pipeline.CallCtx, e callerEdge) {
		key := retMatch{Func: f, Ctx: calleeCtx}
		for _, have := range callers[key] {
			if have == e {
				return
			}
		}
		callers[key] = append(callers[key], e)
		for _, r := range funcRets[f] {
			if _, ok := in[ctxKey{Block: r, Ctx: calleeCtx}]; ok {
				push(ctxKey{Block: r, Ctx: calleeCtx})
			}
		}
	}

	// Transfers run on the scratch state st and refine edges into edge,
	// as in the context-insensitive pass.
	var st, edge state

	// propagate distributes one node's post-state along its context-
	// aware edges. During the ascending fixpoint dst is the add closure
	// above; the narrowing sweeps pass a joining-only sink.
	propagate := func(key ctxKey, st *state, cmp cmpFact, dst func(ctxKey, *state)) {
		b := &g.Blocks[key.Block]
		last := &g.Prog.Insts[b.End-1]
		switch {
		case len(b.Callees) > 0:
			calleeCtx := key.Ctx.PushK(b.CallSite, k)
			for _, ce := range b.Callees {
				dst(ctxKey{Block: ce, Ctx: calleeCtx}, st)
				if b.CallFall >= 0 {
					registerCaller(entryAddrOf(g, ce), calleeCtx, callerEdge{Block: key.Block, Ctx: key.Ctx})
				}
			}
		case last.Op == isa.RET:
			for _, f := range g.RetOwners[key.Block] {
				for _, ce := range callers[retMatch{Func: f, Ctx: key.Ctx}] {
					if fall := g.Blocks[ce.Block].CallFall; fall >= 0 {
						dst(ctxKey{Block: fall, Ctx: ce.Ctx}, st)
					}
				}
			}
		default:
			for _, succ := range b.Succs {
				dst(ctxKey{Block: succ, Ctx: key.Ctx}, edgeState(b, st, cmp, succ, &edge))
			}
		}
	}

	for _, e := range g.Entries {
		add(ctxKey{Block: e, Ctx: root}, newEntryState())
	}

	transfers := 0
	for len(work) > 0 {
		key := work[0]
		work = work[1:]
		dirty[key] = false

		transfers++
		if transfers > maxTransfers {
			return fmt.Errorf("ptrflow: context fixpoint exceeded %d block transfers (diverging lattice?)", maxTransfers)
		}
		st.copyFrom(in[key])
		cmp := a.transferBlock(g, &g.Blocks[key.Block], &st, db, dec, buf, nil)
		propagate(key, &st, cmp, add)
	}

	// Narrowing: descending re-applications over the discovered node
	// set, iterated in discovery order (map-range order would make the
	// widened results nondeterministic). The caller registry is at its
	// fixpoint, so the valid-path return edges are stable.
	for sweep := 0; sweep < narrowSweeps; sweep++ {
		next := map[ctxKey]*state{}
		for _, e := range g.Entries {
			next[ctxKey{Block: e, Ctx: root}] = newEntryState()
		}
		sink := func(key ctxKey, es *state) {
			if cur, ok := next[key]; ok {
				cur.joinInto(es, false)
			} else {
				next[key] = es.clone()
			}
		}
		for _, key := range order {
			transfers++
			st.copyFrom(in[key])
			cmp := a.transferBlock(g, &g.Blocks[key.Block], &st, db, dec, buf, nil)
			propagate(key, &st, cmp, sink)
		}
		for _, key := range order {
			if ns, ok := next[key]; ok {
				in[key] = ns
			}
		}
	}
	a.Stats.Transfers += transfers
	a.ctxIn = in
	a.ctxOrder = order

	// Per-context site collection over the narrowed fixpoint.
	for _, key := range order {
		st.copyFrom(in[key])
		ctx := key.Ctx
		a.transferBlock(g, &g.Blocks[key.Block], &st, db, dec, buf,
			func(inst *isa.Inst, u *isa.Uop, deref Value, ea eaFact) {
				a.recordSiteCtx(ctx, inst, u, deref, ea)
			})
	}
	a.finishCtxs()
	return nil
}

// recordSiteCtx folds one execution point's facts into the site's
// per-context record. Context reachability is a subset of the merged
// graph's, so the site itself always exists already; a missing site
// would mean the two passes disagree on reachability, which recordSite
// guards by construction.
func (a *Analysis) recordSiteCtx(ctx pipeline.CallCtx, in *isa.Inst, u *isa.Uop, deref Value, ea eaFact) {
	s, ok := a.Sites[SiteKey{Addr: in.Addr, MacroIdx: u.MacroIdx}]
	if !ok {
		return
	}
	if s.Ctxs == nil {
		s.Ctxs = map[pipeline.CallCtx]*SiteCtx{}
	}
	sc, ok := s.Ctxs[ctx]
	if !ok {
		s.Ctxs[ctx] = &SiteCtx{Ctx: ctx, Deref: deref, EA: ea}
		return
	}
	sc.Deref = join(sc.Deref, deref)
	sc.EA = joinEA(sc.EA, ea)
}

// finishCtxs derives per-context verdicts, mirroring finish: the same
// global poison demotion applies, since an unbounded store hits every
// context's view of memory.
func (a *Analysis) finishCtxs() {
	for _, s := range a.Sites {
		for _, sc := range s.Ctxs {
			sc.Verdict = verdictOf(sc.Deref)
			sc.Assumed = sc.Deref.Assumed || a.Stats.UnknownEAStores > 0
		}
	}
}
