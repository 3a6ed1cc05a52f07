package tracker

import (
	"fmt"

	"chex86/internal/core"
	"chex86/internal/emu"
	"chex86/internal/isa"
)

// Mismatch records one disagreement between the rule-based tracker and the
// ground truth, for rule-database refinement.
type Mismatch struct {
	RIP     uint64
	Inst    string
	Tracked core.PID
	Actual  core.PID
	Value   uint64
}

// WrongPID tells the two kinds of mismatch apart. A tagged value with the
// wrong PID means an implemented rule produced the wrong capability: a
// rule bug. An untagged value that coincides with a live block is a
// rule-extension candidate (Section V-A): an architect decides whether
// Table I needs a new rule or the value is an integer-provenance
// coincidence the paper leaves to the compiler (fadd/xor hashing is the
// usual source).
func (m Mismatch) WrongPID() bool { return m.Tracked != 0 }

// String renders the mismatch like the checker's diagnostic dump.
func (m Mismatch) String() string {
	return fmt.Sprintf("rip=%#x %-24s tracked=PID(%d) actual=PID(%d) value=%#x",
		m.RIP, m.Inst, m.Tracked, m.Actual, m.Value)
}

// CheckerStats aggregates hardware-checker activity.
type CheckerStats struct {
	Validations uint64
	Matches     uint64
	Mismatches  uint64
	// WrongPIDs counts the mismatches that are rule bugs, past the log's
	// cap too.
	WrongPIDs uint64 `json:",omitempty"`
}

// MismatchRate returns mismatches per validation.
func (s *CheckerStats) MismatchRate() float64 {
	if s.Validations == 0 {
		return 0
	}
	return float64(s.Mismatches) / float64(s.Validations)
}

// Checker is the hardware checker co-processor of Section V-A: for every
// instruction producing a register result, it exhaustively searches the
// ground-truth allocation map to determine whether the result is an
// address inside a tracked block, and validates the tracker's predicted
// PID against that oracle. Disagreements are dumped for rule-database
// refinement — this is the offline profiling loop that constructed
// Table I.
type Checker struct {
	Truth *emu.Truth
	Tags  *RegTags
	Stats CheckerStats

	// Log holds the first LogCap mismatches with execution state.
	Log    []Mismatch
	LogCap int
}

// NewChecker returns a checker validating the tracker's tags against the
// ground truth.
func NewChecker(truth *emu.Truth, tags *RegTags) *Checker {
	return &Checker{Truth: truth, Tags: tags, LogCap: 64}
}

// Validate checks the committed record's register result, if it has one,
// against the ground truth. Returns true when the tracked PID agrees with
// the oracle.
func (c *Checker) Validate(rec *emu.Rec) bool {
	if !rec.HasVal || rec.Inst == nil {
		return true
	}
	dst := rec.Inst.Dst
	if dst.Kind != isa.OpReg {
		return true
	}
	c.Stats.Validations++
	tracked := c.Tags.Current(dst.Reg)

	var actual core.PID
	if span := c.Truth.Find(rec.Val); span != nil {
		actual = span.PID
	}

	ok := tracked == actual
	if !ok {
		// A wild tag (PID -1) on a value that is not a tracked address is
		// deliberate conservatism, not a rule failure; likewise a zero tag
		// for a value that merely falls numerically inside a block the
		// program never derived a pointer to is an integer-provenance
		// coincidence the paper explicitly leaves to the compiler.
		if tracked == core.WildPID && actual == 0 {
			ok = true
		}
	}
	if ok {
		c.Stats.Matches++
		return true
	}
	c.Stats.Mismatches++
	m := Mismatch{RIP: rec.Inst.Addr, Tracked: tracked, Actual: actual, Value: rec.Val}
	if m.WrongPID() {
		c.Stats.WrongPIDs++
	}
	if len(c.Log) < c.LogCap {
		m.Inst = rec.Inst.String()
		c.Log = append(c.Log, m)
	}
	return false
}
