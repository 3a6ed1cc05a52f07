// Package elide turns the static analyzer's safety proofs into a
// capability-check elision map — but only after verifying every proof
// with a small independent checker. The trust argument is
// proof-carrying: the analyzer (internal/ptrflow, with its fixpoint
// engine, widening and region-restart machinery) produces a bundle of
// claims, and this package re-derives the facts those claims rest on
// with its own code. A bug in the analyzer yields a non-inductive
// bundle, which rejects every proof; it can never silently elide an
// unsafe check. The pipeline consumes the resulting map only behind the
// Config.ElideChecks knob, so the whole mechanism is fail-closed at
// every layer.
package elide

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"chex86/internal/asm"
	"chex86/internal/pipeline"
	"chex86/internal/ptrflow"
	"chex86/internal/tracker"
)

// Options configures proof generation and checking.
type Options struct {
	// Harts is the number of hardware threads the program runs with
	// (temporal safety conditions are stricter when concurrent frees are
	// possible). Zero means one.
	Harts int

	// ContextK selects the call-string depth of the analyzer's
	// context-sensitive layer: 0 means the default (k = 2), -1 disables
	// the layer entirely (context-insensitive proofs only).
	ContextK int
}

// SiteDecision is the per-dereference outcome: elide (independently
// verified proven-safe) or keep (no proof, or proof rejected).
type SiteDecision struct {
	Addr     uint64 `json:"addr"`
	MacroIdx uint8  `json:"macroIdx"`
	// Ctx is the calling context the decision applies in: "any" for the
	// context-insensitive layer (one row per site), or a call-string
	// form for a context-qualified proof row (emitted only when the
	// "any" row keeps the check).
	Ctx           string   `json:"ctx"`
	Store         bool     `json:"store,omitempty"`
	Status        string   `json:"status"` // "elide" | "keep"
	Region        string   `json:"region,omitempty"`
	Lo            int64    `json:"lo,omitempty"`
	Hi            int64    `json:"hi,omitempty"`
	Size          uint32   `json:"size,omitempty"`
	Reason        string   `json:"reason,omitempty"` // why kept
	Justification []string `json:"justification,omitempty"`
}

// Stats summarizes a checking run.
type Stats struct {
	Sites    int `json:"sites"`    // memory access sites analyzed
	Proofs   int `json:"proofs"`   // proofs the analyzer emitted
	Elided   int `json:"elided"`   // proofs the checker verified
	Rejected int `json:"rejected"` // proofs the checker refused
}

// Report is the verified elision decision set for one program. Its JSON
// form is byte-stable: decisions follow the analyzer's sorted site
// order, and every field is plain data.
type Report struct {
	Harts int `json:"harts"`
	// CtxK is the call-string depth of the bundle's context-sensitive
	// layer (-1 = none). The pipeline configuration must carry it
	// (Config.ElisionCtxK) so the runtime truncates its live fold to the
	// depth the map's keys were built at.
	CtxK         int            `json:"ctxK"`
	Verified     bool           `json:"verified"`
	Reason       string         `json:"reason,omitempty"` // bundle-level rejection
	HeapMinChunk uint64         `json:"heapMinChunk,omitempty"`
	Stats        Stats          `json:"stats"`
	Decisions    []SiteDecision `json:"decisions"`

	// Digest is the content address of the decision set (plus the
	// tracker rule semantics the proofs were validated against). The
	// pipeline configuration carries it (Config.ElisionDigest) so the
	// campaign result cache keys on the exact map in effect.
	Digest string `json:"digest"`

	// Map is the pipeline-consumable elision map (true at proven-safe
	// sites only).
	Map pipeline.ElisionMap `json:"-"`
}

// ForProgram analyzes prog, has the analyzer emit a proof bundle, and
// independently verifies it into an elision report. The error covers
// analysis failure only; rejected proofs surface as keep decisions.
func ForProgram(prog *asm.Program, opt Options) (*Report, error) {
	an, err := ptrflow.Analyze(prog, ptrflow.Options{
		Harts:    opt.Harts,
		ContextK: opt.ContextK,
	})
	if err != nil {
		return nil, fmt.Errorf("elide: %w", err)
	}
	return FromAnalysis(prog, an, opt), nil
}

// FromAnalysis verifies an existing analysis' proof bundle.
func FromAnalysis(prog *asm.Program, an *ptrflow.Analysis, opt Options) *Report {
	return verify(prog, an.ProofBundle(), an.SortedSites(), opt)
}

// verify checks bundle against prog and decides every site in sites (the
// analyzer's sorted site order) into a report.
func verify(prog *asm.Program, bundle *ptrflow.Bundle, sites []*ptrflow.Site, opt Options) *Report {
	harts := opt.Harts
	if harts <= 0 {
		harts = 1
	}
	rep := &Report{Harts: harts, CtxK: bundle.CtxK, Map: pipeline.ElisionMap{}}

	type key struct {
		addr uint64
		idx  uint8
	}
	ctxAny := pipeline.CtxAny.String()
	anyProofs := map[key]*ptrflow.Proof{}
	ctxProofs := map[key][]*ptrflow.Proof{}
	for i := range bundle.Proofs {
		p := &bundle.Proofs[i]
		k := key{p.Addr, p.MacroIdx}
		if p.Ctx == "" || p.Ctx == ctxAny {
			anyProofs[k] = p
		} else {
			ctxProofs[k] = append(ctxProofs[k], p)
		}
	}
	rep.Stats.Proofs = len(bundle.Proofs)

	ck, err := newChecker(prog, bundle, harts)
	if err == nil {
		err = ck.verifyInduction()
	}
	if err != nil {
		rep.Reason = err.Error()
	} else {
		rep.Verified = true
		rep.HeapMinChunk = ck.heapChunkMin()
	}

	for _, s := range sites {
		k := key{s.Addr, s.MacroIdx}
		d := SiteDecision{Addr: s.Addr, MacroIdx: s.MacroIdx, Ctx: ctxAny, Store: s.Store, Status: "keep"}
		p, hasProof := anyProofs[k]
		switch {
		case !hasProof:
			d.Reason = fmt.Sprintf("no proof (analyzer verdict: %s)", s.Verdict)
		case err != nil:
			d.Reason = "bundle rejected: " + err.Error()
			rep.Stats.Rejected++
		default:
			if perr := ck.verifyProof(p); perr != nil {
				d.Reason = "proof rejected: " + perr.Error()
				rep.Stats.Rejected++
			} else {
				elideInto(&d, p)
				rep.Map[pipeline.ElideKey{Addr: p.Addr, MacroIdx: p.MacroIdx, Ctx: pipeline.CtxAny}] = true
				rep.Stats.Elided++
			}
		}
		rep.Decisions = append(rep.Decisions, d)
		if d.Status == "elide" {
			continue // a ⊤ elision already covers every calling context
		}
		// Context-qualified proofs for a site the ⊤ layer keeps: one
		// decision row per claimed context, in the bundle's canonical
		// context order.
		for _, cp := range ctxProofs[k] {
			cd := SiteDecision{Addr: s.Addr, MacroIdx: s.MacroIdx, Ctx: cp.Ctx, Store: s.Store, Status: "keep"}
			ctx, cerr := pipeline.ParseCallCtx(cp.Ctx)
			switch {
			case err != nil:
				cd.Reason = "bundle rejected: " + err.Error()
				rep.Stats.Rejected++
			case cerr != nil:
				cd.Reason = "proof rejected: " + cerr.Error()
				rep.Stats.Rejected++
			default:
				if perr := ck.verifyProof(cp); perr != nil {
					cd.Reason = "proof rejected: " + perr.Error()
					rep.Stats.Rejected++
				} else {
					elideInto(&cd, cp)
					rep.Map[pipeline.ElideKey{Addr: cp.Addr, MacroIdx: cp.MacroIdx, Ctx: ctx}] = true
					rep.Stats.Elided++
				}
			}
			rep.Decisions = append(rep.Decisions, cd)
		}
	}
	rep.Stats.Sites = len(sites)
	rep.Digest = digest(rep)
	return rep
}

func elideInto(d *SiteDecision, p *ptrflow.Proof) {
	d.Status = "elide"
	d.Region = p.Region
	d.Lo, d.Hi, d.Size = p.Lo, p.Hi, p.Size
	d.Justification = append(append([]string{}, p.Justification...),
		"checker: block invariants verified inductive, site conditions re-derived independently")
}

// digest content-addresses the decision set together with the tracker
// rule semantics it was validated against and the hart count the
// temporal conditions assumed.
func digest(rep *Report) string {
	h := sha256.New()
	var harts [8]byte
	binary.LittleEndian.PutUint64(harts[:], uint64(rep.Harts))
	h.Write(harts[:])
	dec, err := json.Marshal(rep.Decisions)
	if err != nil {
		panic(fmt.Sprintf("elide: decisions marshal: %v", err))
	}
	h.Write(dec)
	rules, err := json.Marshal(tracker.NewRuleDB().Export())
	if err != nil {
		panic(fmt.Sprintf("elide: rule export marshal: %v", err))
	}
	h.Write(rules)
	return hex.EncodeToString(h.Sum(nil))
}
