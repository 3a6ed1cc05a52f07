package ptrflow

import (
	"context"
	"fmt"
	"sort"

	"chex86/internal/asm"
	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/isa"
	"chex86/internal/pipeline"
)

// Classification labels for one site's static-vs-dynamic diff.
const (
	// ClassCovered: statically proven pointer, and the tracker tagged the
	// dereference on every execution.
	ClassCovered = "covered"
	// ClassFalseNegative: statically proven pointer on sound grounds, but
	// the tracker left at least one execution untagged — a proven tracker
	// false negative (the capability check silently never fired).
	ClassFalseNegative = "false-negative"
	// ClassFalseNegativeAssumed: static pointer verdict resting on the
	// init-order assumption, with untagged executions. Not a proof —
	// auto-triaged with a rule-gap tag.
	ClassFalseNegativeAssumed = "false-negative-assumed"
	// ClassOverTagged: statically proven not-pointer, but the tracker
	// tagged an execution (a spurious capability check).
	ClassOverTagged = "over-tagged"
	// ClassConsistentUntagged: statically not-pointer and never tagged.
	ClassConsistentUntagged = "consistent-untagged"
	// ClassUnknown: the static analysis could not bound the tag; any
	// runtime behavior is consistent.
	ClassUnknown = "unknown"
	// ClassUnexecuted: a static site the workload never reached at runtime.
	ClassUnexecuted = "unexecuted"
	// ClassUncharted: a runtime dereference at a program-text address the
	// static analysis has no site for (code behind unresolved indirect
	// branches).
	ClassUncharted = "uncharted"
)

// TriageInitOrder tags assumed-verdict mismatches: the static pointer
// claim rests on the assumption that a region's initializing writes
// precede its reads, which the flow-insensitive region summaries cannot
// prove (DESIGN.md §9).
const TriageInitOrder = "rule-gap:init-order-assumption"

// CheckOptions parameterizes a cross-check run.
type CheckOptions struct {
	// Harts is the hart count (defaults to 1).
	Harts int
	// MaxInsts / MaxCycles bound the replay (0 = unbounded).
	MaxInsts  uint64
	MaxCycles uint64
}

// SiteReport is one memory micro-op's static verdict and runtime tag
// behavior in the JSON report.
type SiteReport struct {
	Addr     string `json:"addr"` // hex
	MacroIdx uint8  `json:"uop"`
	Store    bool   `json:"store"`
	Inst     string `json:"inst"`
	Verdict  string `json:"verdict"`
	Assumed  bool   `json:"assumed,omitempty"`
	Deref    string `json:"deref"`
	Execs    uint64 `json:"execs"`
	Tagged   uint64 `json:"tagged"`
	Wild     uint64 `json:"wild,omitempty"`
	Class    string `json:"class"`
	Triage   string `json:"triage,omitempty"`

	addr uint64
}

// ClassCounts aggregates site classifications (fixed fields, not a map,
// so the JSON is byte-stable).
type ClassCounts struct {
	Covered              int `json:"covered"`
	FalseNegative        int `json:"false_negative"`
	FalseNegativeAssumed int `json:"false_negative_assumed"`
	OverTagged           int `json:"over_tagged"`
	ConsistentUntagged   int `json:"consistent_untagged"`
	Unknown              int `json:"unknown"`
	Unexecuted           int `json:"unexecuted"`
	Uncharted            int `json:"uncharted"`
}

// ExternalReport counts dereferences executed at addresses outside
// program text (the synthetic allocator-exit returns of the heap model).
type ExternalReport struct {
	Addr   string `json:"addr"` // hex
	Execs  uint64 `json:"execs"`
	Tagged uint64 `json:"tagged"`
}

// Report is the full cross-check result.
type Report struct {
	Workload string `json:"workload,omitempty"`
	Variant  string `json:"variant"`
	Harts    int    `json:"harts"`

	// Static analysis shape.
	Insts               int `json:"insts"`
	Blocks              int `json:"blocks"`
	MemSites            int `json:"mem_sites"`
	PointerSites        int `json:"pointer_sites"`
	NotPointerSites     int `json:"not_pointer_sites"`
	UnknownSites        int `json:"unknown_sites"`
	AssumedSites        int `json:"assumed_sites"`
	UnknownEAStores     int `json:"unknown_ea_stores,omitempty"`
	UnresolvedIndirects int `json:"unresolved_indirects,omitempty"`

	// Dynamic replay shape.
	DerefExecs  uint64 `json:"deref_execs"`
	TaggedExecs uint64 `json:"tagged_execs"`
	MacroInsts  uint64 `json:"macro_insts"`
	ChecksRun   uint64 `json:"checks_run"`

	// Coverage is the fraction of dynamic dereferences at statically-
	// proven pointer sites that the tracker actually tagged — the
	// tracker-coverage metric (1.0 = no under-tracking observed).
	Coverage      float64 `json:"coverage"`
	PointerExecs  uint64  `json:"pointer_site_execs"`
	PointerTagged uint64  `json:"pointer_site_tagged"`

	Classes  ClassCounts      `json:"classes"`
	Sites    []SiteReport     `json:"sites"`
	External []ExternalReport `json:"external,omitempty"`

	// FalseNegatives counts proven (untriaged) tracker false negatives;
	// `chexbench -coverage` exits non-zero when it is not 0.
	FalseNegatives        int `json:"false_negatives"`
	TriagedFalseNegatives int `json:"triaged_false_negatives"`
	OverTaggedSites       int `json:"over_tagged_sites"`

	Regions []RegionSummary `json:"regions,omitempty"`
}

// siteRun accumulates one site's runtime tag stream.
type siteRun struct {
	execs  uint64
	tagged uint64
	wild   uint64
}

// Crosscheck statically analyzes prog, replays it through the pipeline
// with the dynamic tracker (the prediction variant), and diffs the runtime
// tag stream against the static verdicts.
func Crosscheck(ctx context.Context, prog *asm.Program, opt CheckOptions) (*Report, error) {
	if opt.Harts <= 0 {
		opt.Harts = 1
	}
	an, err := Analyze(prog, Options{Harts: opt.Harts})
	if err != nil {
		return nil, err
	}

	const variant = decode.VariantMicrocodePrediction
	cfg := pipeline.DefaultConfig()
	cfg.Variant = variant
	cfg.MaxInsts = opt.MaxInsts
	cfg.MaxCycles = opt.MaxCycles
	cfg.WarmupInsts = 0 // the diff wants the whole execution, setup included

	sim, err := pipeline.NewSim(prog, cfg, opt.Harts)
	if err != nil {
		return nil, err
	}

	runs := map[SiteKey]*siteRun{}
	external := map[uint64]*siteRun{}
	textEnd := prog.End()
	var derefExecs, taggedExecs uint64
	sim.TraceDeref = func(rip uint64, u *isa.Uop, pid core.PID) {
		derefExecs++
		tagged := pid != 0
		if tagged {
			taggedExecs++
		}
		var r *siteRun
		if rip >= prog.TextBase && rip < textEnd {
			k := SiteKey{Addr: rip, MacroIdx: u.MacroIdx}
			r = runs[k]
			if r == nil {
				r = &siteRun{}
				runs[k] = r
			}
		} else {
			r = external[rip]
			if r == nil {
				r = &siteRun{}
				external[rip] = r
			}
		}
		r.execs++
		if tagged {
			r.tagged++
		}
		if pid == core.WildPID {
			r.wild++
		}
	}

	res, err := sim.RunContext(ctx)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Variant:             variant.String(),
		Harts:               opt.Harts,
		Insts:               an.Stats.Insts,
		Blocks:              an.Stats.Blocks,
		MemSites:            an.Stats.MemSites,
		PointerSites:        an.Stats.PointerSites,
		NotPointerSites:     an.Stats.NotPointerSites,
		UnknownSites:        an.Stats.UnknownSites,
		AssumedSites:        an.Stats.AssumedSites,
		UnknownEAStores:     an.Stats.UnknownEAStores,
		UnresolvedIndirects: an.Stats.UnresolvedIndirects,
		DerefExecs:          derefExecs,
		TaggedExecs:         taggedExecs,
		MacroInsts:          res.MacroInsts,
		ChecksRun:           res.ChecksRun,
		Regions:             an.RegionSummaries(),
	}

	// Diff every static site against its runtime tag stream.
	for _, s := range an.SortedSites() {
		r := runs[s.Key()]
		if r == nil {
			r = &siteRun{}
		}
		sr := SiteReport{
			Addr: fmt.Sprintf("%#x", s.Addr), MacroIdx: s.MacroIdx, Store: s.Store,
			Inst: s.Inst, Verdict: s.Verdict.String(), Assumed: s.Assumed,
			Deref: s.Deref.String(), Execs: r.execs, Tagged: r.tagged, Wild: r.wild,
			addr: s.Addr,
		}
		sr.Class, sr.Triage = classify(s, r)
		delete(runs, s.Key())
		countClass(rep, &sr)
		rep.Sites = append(rep.Sites, sr)
	}
	// Runtime dereferences with no static site. Iteration order does not
	// reach the output: rep.Sites is sorted below.
	for k, r := range runs { //determinism:ok
		sr := SiteReport{
			Addr: fmt.Sprintf("%#x", k.Addr), MacroIdx: k.MacroIdx,
			Verdict: VerdictUnknown.String(), Execs: r.execs, Tagged: r.tagged,
			Wild: r.wild, Class: ClassUncharted, addr: k.Addr,
		}
		countClass(rep, &sr)
		rep.Sites = append(rep.Sites, sr)
	}
	sort.Slice(rep.Sites, func(i, j int) bool {
		if rep.Sites[i].addr != rep.Sites[j].addr {
			return rep.Sites[i].addr < rep.Sites[j].addr
		}
		return rep.Sites[i].MacroIdx < rep.Sites[j].MacroIdx
	})

	var extAddrs []uint64
	for a := range external {
		extAddrs = append(extAddrs, a)
	}
	sort.Slice(extAddrs, func(i, j int) bool { return extAddrs[i] < extAddrs[j] })
	for _, a := range extAddrs {
		r := external[a]
		rep.External = append(rep.External,
			ExternalReport{Addr: fmt.Sprintf("%#x", a), Execs: r.execs, Tagged: r.tagged})
	}

	deriveTotals(rep)
	if rep.PointerExecs > 0 {
		rep.Coverage = float64(rep.PointerTagged) / float64(rep.PointerExecs)
	} else {
		rep.Coverage = 1
	}
	return rep, nil
}

// classify buckets one site's static verdict against its tag stream.
// Every site lands in exactly one class: a pointer site whose executions
// carry the wild tag is simultaneously over-tagged (the wild check
// fires) and uncovered (the owning capability's check never does), and
// it counts once — as uncovered — rather than once in each bucket.
func classify(s *Site, r *siteRun) (class, triage string) {
	if r.execs == 0 {
		return ClassUnexecuted, ""
	}
	switch s.Verdict {
	case VerdictPointer:
		// Only properly attributed tags are coverage; a wild tag runs a
		// check against no real capability, so it protects nothing.
		if r.tagged-r.wild == r.execs {
			return ClassCovered, ""
		}
		if s.Assumed {
			return ClassFalseNegativeAssumed, TriageInitOrder
		}
		return ClassFalseNegative, ""
	case VerdictNotPointer:
		if r.tagged == 0 {
			return ClassConsistentUntagged, ""
		}
		if s.Assumed {
			return ClassOverTagged, TriageInitOrder
		}
		return ClassOverTagged, ""
	default:
		return ClassUnknown, ""
	}
}

// countClass folds one site report into the aggregate counters. It only
// touches the per-class histogram and the coverage accumulators; the
// headline mismatch counters are derived from the histogram afterwards
// (deriveTotals), so one site can never be counted in two buckets.
func countClass(rep *Report, sr *SiteReport) {
	switch sr.Class {
	case ClassCovered:
		rep.Classes.Covered++
	case ClassFalseNegative:
		rep.Classes.FalseNegative++
	case ClassFalseNegativeAssumed:
		rep.Classes.FalseNegativeAssumed++
	case ClassOverTagged:
		rep.Classes.OverTagged++
	case ClassConsistentUntagged:
		rep.Classes.ConsistentUntagged++
	case ClassUnknown:
		rep.Classes.Unknown++
	case ClassUnexecuted:
		rep.Classes.Unexecuted++
	case ClassUncharted:
		rep.Classes.Uncharted++
	}
	if sr.Verdict == VerdictPointer.String() {
		// Wild-tagged executions ran a check against no real capability;
		// they count once, as uncovered — never as coverage.
		rep.PointerExecs += sr.Execs
		rep.PointerTagged += sr.Tagged - sr.Wild
	}
}

// deriveTotals computes the headline mismatch counters from the class
// histogram. Each site sits in exactly one histogram bucket, so the
// totals cannot double-count a site that is both over-tagged and
// uncovered.
func deriveTotals(rep *Report) {
	rep.FalseNegatives = rep.Classes.FalseNegative
	rep.TriagedFalseNegatives = rep.Classes.FalseNegativeAssumed
	rep.OverTaggedSites = rep.Classes.OverTagged
}
