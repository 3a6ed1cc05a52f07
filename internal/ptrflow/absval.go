// Package ptrflow implements a static pointer-flow analysis over decoded
// guest programs: it constructs a control-flow graph from the macro-op
// stream, runs a reaching-definitions dataflow that abstractly interprets
// the pointer-tracking rule database of Table I (the same rules the
// dynamic tracker applies), models pointer spills and reloads through a
// per-frame stack-slot lattice, and emits a per-dereference verdict —
// statically-pointer, statically-not-pointer, or unknown.
//
// The abstract domain models the *tracker's* view of the program, not the
// concrete values: a register's abstract value is the PID tag the
// speculative pointer tracker would assign it, folded over every path.
// That makes the analysis directly comparable with the runtime tag stream
// (see crosscheck.go): a site the analysis proves statically-pointer must
// be tagged by the tracker on every execution, so an untagged execution of
// such a site is a proven tracker false negative.
package ptrflow

import (
	"fmt"

	"chex86/internal/core"
	"chex86/internal/tracker"
)

// Tag is the abstract PID-tag lattice:
//
//	        Top
//	      /  |  \
//	NotPtr  Ptr  Wild
//	      \  |  /
//	        Bot
//
// NotPtr abstracts tag 0 (the tracker would not check the dereference),
// Ptr abstracts positive PIDs (genuine capabilities), Wild abstracts the
// wild-integer tag core.WildPID. Bot is unreached code.
type Tag uint8

const (
	TagBot Tag = iota
	TagNotPtr
	TagPtr
	TagWild
	TagTop
)

var tagNames = [...]string{"bot", "not-ptr", "ptr", "wild", "top"}

// String names the lattice element.
func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return "tag?"
}

// joinTag is the least upper bound on the tag lattice.
func joinTag(a, b Tag) Tag {
	switch {
	case a == b:
		return a
	case a == TagBot:
		return b
	case b == TagBot:
		return a
	default:
		return TagTop
	}
}

// Value is one abstract tracker tag: the lattice element, the memory
// region a Ptr value points into ("" when unknown, "heap" for allocator
// results, a global's name otherwise), and whether the value was derived
// through a region summary (the no-read-before-write initialization
// assumption, see DESIGN.md §9). Verdicts derived from Assumed values are
// reported separately from sound ones by the cross-checker.
type Value struct {
	Tag     Tag
	Region  string
	Assumed bool

	// Rng is the value-range component (see Interval): a numeric range
	// for not-ptr/wild values, a region-base-relative byte-offset range
	// for region-attributed pointers, and Full otherwise.
	Rng Interval
}

// HeapRegion names the abstract region of allocator-returned pointers.
const HeapRegion = "heap"

var (
	bot    = Value{Tag: TagBot, Rng: ivEmpty}
	notPtr = Value{Tag: TagNotPtr, Rng: ivFull}
	top    = Value{Tag: TagTop, Rng: ivFull}
	// zeroVal abstracts never-written memory: tag 0, value 0.
	zeroVal = Value{Tag: TagNotPtr, Rng: Interval{Lo: 0, Hi: 0}}
)

// numVal builds a not-ptr value carrying a numeric range.
func numVal(iv Interval) Value { return Value{Tag: TagNotPtr, Rng: iv} }

// ptrVal builds a region-attributed pointer carrying an offset range.
func ptrVal(region string, off Interval) Value {
	return Value{Tag: TagPtr, Region: region, Rng: off}
}

// rangeMeaningful reports whether the value's interval carries a defined
// meaning (numeric range, or region-relative offset range).
func (v Value) rangeMeaningful() bool {
	switch v.Tag {
	case TagNotPtr, TagWild:
		return true
	case TagPtr:
		return v.Region != ""
	default:
		return false
	}
}

// numRng returns a sound numeric range for the value: its interval when
// the value is a plain number (or wild integer), Full otherwise — a
// pointer's "numeric value" is an absolute address the analysis never
// bounds.
func numRng(v Value) Interval {
	if v.Tag == TagNotPtr || v.Tag == TagWild {
		return v.Rng
	}
	return ivFull
}

// String renders the value for diagnostics.
func (v Value) String() string {
	s := v.Tag.String()
	if v.Tag == TagPtr && v.Region != "" {
		s += "(" + v.Region + ")"
	}
	if v.rangeMeaningful() && !v.Rng.Full() {
		s += v.Rng.String()
	}
	if v.Assumed {
		s += "~"
	}
	return s
}

// joinRng combines the interval components of a join: the hull when both
// sides' intervals share a meaning (both numeric, or offsets into the
// same region), Full otherwise — mixing an offset with a number would
// fabricate an unsound range.
func joinRng(a, b, out Value) Interval {
	aNum := a.Tag == TagNotPtr || a.Tag == TagWild
	bNum := b.Tag == TagNotPtr || b.Tag == TagWild
	switch {
	case aNum && bNum:
		return ivJoin(a.Rng, b.Rng)
	case a.Tag == TagPtr && b.Tag == TagPtr && a.Region == b.Region && a.Region != "":
		return ivJoin(a.Rng, b.Rng)
	default:
		return ivFull
	}
}

// join is the least upper bound on Values. Regions survive only when both
// sides agree; the Assumed taint is sticky.
func join(a, b Value) Value {
	if a.Tag == TagBot {
		return b
	}
	if b.Tag == TagBot {
		return a
	}
	out := Value{Tag: joinTag(a.Tag, b.Tag), Assumed: a.Assumed || b.Assumed}
	if out.Tag == TagPtr && a.Region == b.Region {
		out.Region = a.Region
	}
	out.Rng = joinRng(a, b, out)
	if !out.rangeMeaningful() {
		out.Rng = ivFull
	}
	return out
}

// widenValue joins b into a, widening the interval component so loop
// iteration counts cannot drive unbounded ascending chains.
func widenValue(a, b Value) Value {
	j := join(a, b)
	if a.Tag == TagBot {
		return j
	}
	j.Rng = ivWiden(a.Rng, j.Rng)
	if !j.rangeMeaningful() {
		j.Rng = ivFull
	}
	return j
}

// eq reports lattice equality (used for fixpoint change detection).
func (v Value) eq(o Value) bool {
	return v.Tag == o.Tag && v.Region == o.Region && v.Assumed == o.Assumed && v.Rng == o.Rng
}

// canonical reports whether v has the form join itself produces: bot, or
// a region only on a ptr value and a full interval wherever the interval
// has no meaning. join and widenValue are idempotent on canonical values
// (join(v, v) == v == widenValue(v, v); TestJoinIdempotentOnCanonical
// walks the cases), so joinValue skips joining two equal canonical
// values.
func (v Value) canonical() bool {
	return v.Tag == TagBot ||
		((v.Tag == TagPtr || v.Region == "") && (v.Rng == ivFull || v.rangeMeaningful()))
}

// classifyPID maps a concrete PID to its lattice element, mirroring the
// tracker's three tag classes.
func classifyPID(pid core.PID) Tag {
	switch {
	case pid == 0:
		return TagNotPtr
	case pid == core.WildPID:
		return TagWild
	default:
		return TagPtr
	}
}

// Representative concrete PIDs per lattice element, distinct per source
// position so a rule's output can be attributed to the source it selected
// (which is how Ptr regions flow through the sampled rule closures).
var (
	src1Reps = map[Tag][]core.PID{
		TagBot:    {0},
		TagNotPtr: {0},
		TagPtr:    {5},
		TagWild:   {core.WildPID},
		TagTop:    {0, 5, core.WildPID},
	}
	src2Reps = map[Tag][]core.PID{
		TagBot:    {0},
		TagNotPtr: {0},
		TagPtr:    {7},
		TagWild:   {core.WildPID},
		TagTop:    {0, 7, core.WildPID},
	}
)

// absPropagate abstractly interprets one register rule of the Table I
// database by sampling its concrete Propagate closure with representative
// PIDs from each source's equivalence class and joining the classified
// results. Table I's rules are selections over the {zero, wild, positive}
// classes, so class representatives exercise every branch of the closure.
func absPropagate(r *tracker.Rule, v1, v2 Value) Value {
	out := bot
	for _, a := range src1Reps[v1.Tag] {
		for _, b := range src2Reps[v2.Tag] {
			pid := r.Propagate(a, b)
			// The interval component is computed structurally by the
			// caller (see transferArith); Full is the sound placeholder.
			rv := Value{Tag: classifyPID(pid), Rng: ivFull}
			if rv.Tag == TagPtr {
				// Attribute the surviving pointer to the source whose
				// representative it is, recovering its region.
				switch pid {
				case a:
					rv.Region = v1.Region
				case b:
					rv.Region = v2.Region
				}
			}
			out = join(out, rv)
		}
	}
	out.Assumed = out.Assumed || v1.Assumed || v2.Assumed
	return out
}

// memVal abstracts the alias-table-visible value of a store: the shadow
// alias table records only genuine capabilities, so storing a wild-tagged
// or untagged value behaves as a clear (the tracker's StoreAlias skips
// WildPID and records clears for tag 0). A load of that slot then yields
// tag 0.
func memVal(v Value) Value {
	switch v.Tag {
	case TagBot:
		return bot
	case TagPtr:
		return v
	case TagNotPtr, TagWild:
		return Value{Tag: TagNotPtr, Assumed: v.Assumed, Rng: v.Rng}
	default:
		return Value{Tag: TagTop, Assumed: v.Assumed, Rng: ivFull}
	}
}

// Verdict is the per-dereference static classification.
type Verdict uint8

const (
	// VerdictUnknown: the analysis cannot bound the tracker's tag for the
	// dereference (joined paths disagree, or the value escaped the model).
	VerdictUnknown Verdict = iota
	// VerdictPointer: the tracker must tag this dereference with a
	// non-zero PID on every execution.
	VerdictPointer
	// VerdictNotPointer: the tracker must leave this dereference untagged
	// (no capability check fires) on every execution.
	VerdictNotPointer
)

var verdictNames = [...]string{"unknown", "pointer", "not-pointer"}

// String names the verdict as used in the JSON report.
func (v Verdict) String() string {
	if int(v) < len(verdictNames) {
		return verdictNames[v]
	}
	return fmt.Sprintf("verdict?%d", uint8(v))
}

// verdictOf maps the joined abstract deref value to a verdict, mirroring
// DerefPID's tag classes: Ptr and Wild both mean a non-zero PID (the
// check fires), NotPtr means tag 0, anything else is unbounded.
func verdictOf(v Value) Verdict {
	switch v.Tag {
	case TagPtr, TagWild:
		return VerdictPointer
	case TagNotPtr:
		return VerdictNotPointer
	default:
		return VerdictUnknown
	}
}
