package elide

import (
	"fmt"

	"chex86/internal/isa"
	"chex86/internal/pipeline"
)

// This file is the checker side of the context-sensitive layer
// (DESIGN.md §14). The analyzer claims one invariant per reachable
// (block, k-limited call string) node; the checker re-derives the edge
// relation those claims must be inductive over — context pushes at
// internal calls, valid-path returns matched through a caller registry
// it rebuilds itself from the claimed key set — and verifies:
//
//  1. entry coverage: every hart entry block is claimed at the root
//     context, containing the checker's entry state;
//  2. induction: every claimed node's transferred-out state is contained
//     in the claimed invariant of every context-aware edge target, and
//     every such target is itself claimed (fail-closed closure: an edge
//     into an unclaimed node rejects the bundle rather than assuming
//     anything about it);
//  3. context-join subsumption: every per-context invariant is contained
//     in the same block's ⊤-layer invariant, so a context-qualified
//     claim is never weaker than the joined claim the CtxAny fallback
//     elides against.
//
// The ⊤ layer's own induction over the merged Succs graph is verified
// separately (verifyInduction) and is untouched by any of this: a
// merged-graph induction would be unsound for per-context states (a
// return site only receives its matched callers' RET states, not the
// join over all callers), which is exactly why the two layers carry
// separate obligations.

// verifyCtxInduction verifies the bundle's context-sensitive layer. A
// bundle with no per-context claims (CtxK < 1) passes trivially.
func (ck *checker) verifyCtxInduction() error {
	if len(ck.ctxOrder) == 0 {
		return nil
	}
	g := ck.cfg
	k := ck.bundle.CtxK // decodeClaims validated 1 <= k <= 2

	// Entry coverage at the root context.
	for _, e := range g.Entries {
		inv, ok := ck.ctxInvs[ctxInvKey{block: e, ctx: pipeline.CtxRoot}]
		if !ok {
			return fmt.Errorf("entry block %d has no root-context invariant", e)
		}
		if err := stateLE(newEntryCState(), inv); err != nil {
			return fmt.Errorf("entry block %d at root context: %v", e, err)
		}
	}

	// Context-join subsumption against the ⊤ layer.
	for _, key := range ck.ctxOrder {
		anyInv, ok := ck.invs[key.block]
		if !ok {
			return fmt.Errorf("block %d claimed at context %s but has no ⊤ invariant",
				key.block, key.ctx)
		}
		if err := stateLE(ck.ctxInvs[key], anyInv); err != nil {
			return fmt.Errorf("block %d context %s not subsumed by ⊤ invariant: %v",
				key.block, key.ctx, err)
		}
	}

	// Caller registry, rebuilt from the claimed key set: a claimed call
	// block (b, c) with a return site registers (b, c) as a caller of
	// every callee under the pushed context c·site. RET states under a
	// callee context propagate only to these matched return sites — the
	// valid-path edges.
	type retMatch struct {
		fn  uint64
		ctx pipeline.CallCtx
	}
	callers := map[retMatch][]ctxInvKey{}
	for _, key := range ck.ctxOrder {
		b := &g.Blocks[key.block]
		if len(b.Callees) == 0 || b.CallFall < 0 {
			continue
		}
		calleeCtx := key.ctx.PushK(b.CallSite, k)
		for _, ce := range b.Callees {
			fn := g.Prog.Insts[g.Blocks[ce].Start].Addr
			callers[retMatch{fn: fn, ctx: calleeCtx}] =
				append(callers[retMatch{fn: fn, ctx: calleeCtx}], key)
		}
	}

	require := func(key ctxInvKey, from ctxInvKey) (*cstate, error) {
		inv, ok := ck.ctxInvs[key]
		if !ok {
			return nil, fmt.Errorf("block %d context %s flows into block %d context %s which has no invariant",
				from.block, from.ctx, key.block, key.ctx)
		}
		return inv, nil
	}
	flow := func(st *cstate, key ctxInvKey, from ctxInvKey) error {
		inv, err := require(key, from)
		if err != nil {
			return err
		}
		if err := stateLE(st, inv); err != nil {
			return fmt.Errorf("block %d -> %d (context %s -> %s) not inductive: %v",
				from.block, key.block, from.ctx, key.ctx, err)
		}
		return nil
	}

	for _, key := range ck.ctxOrder {
		b := &g.Blocks[key.block]
		st := &ck.st
		st.copyFrom(ck.ctxInvs[key])
		cmp := ck.transferBlockF(b, st, nil)
		last := &g.Prog.Insts[b.End-1]
		switch {
		case len(b.Callees) > 0:
			calleeCtx := key.ctx.PushK(b.CallSite, k)
			for _, ce := range b.Callees {
				if err := flow(st, ctxInvKey{block: ce, ctx: calleeCtx}, key); err != nil {
					return err
				}
			}
		case last.Op == isa.RET:
			for _, fn := range g.RetOwners[key.block] {
				for _, caller := range callers[retMatch{fn: fn, ctx: key.ctx}] {
					fall := g.Blocks[caller.block].CallFall
					if err := flow(st, ctxInvKey{block: fall, ctx: caller.ctx}, key); err != nil {
						return err
					}
				}
			}
		default:
			for _, succ := range b.Succs {
				if err := flow(ck.edgeState(b, cmp, succ), ctxInvKey{block: succ, ctx: key.ctx}, key); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
