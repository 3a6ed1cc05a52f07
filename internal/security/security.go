// Package security implements the paper's security evaluation (Section
// VII-A): three exploit suites — a RIPE-style spatial-violation sweep, an
// AddressSanitizer-test-style unit suite, and a How2Heap-style collection
// of heap-metadata-corruption exploits — plus the false-positive probes of
// Section VII-B. Every exploit is a real guest program whose violation
// CHEx86 must detect under the hood; benign probes must run clean.
package security

import (
	"encoding/json"
	"fmt"
	"slices"

	"chex86/internal/asm"
	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/pipeline"
)

// Suite labels.
const (
	SuiteRIPE     = "RIPE"
	SuiteASan     = "ASan tests"
	SuiteHow2Heap = "How2Heap"
	SuiteFP       = "False positives"
)

// Exploit is one security-evaluation case.
type Exploit struct {
	Name  string
	Suite string
	Desc  string

	// Build assembles the guest program carrying the exploit.
	Build func() (*asm.Program, error)

	// Expect is the violation class CHEx86 must report; VNone means the
	// program is benign and must run without any violation.
	Expect core.ViolationKind
}

// Outcome is the result of running one exploit.
type Outcome struct {
	Exploit   *Exploit
	Detected  bool
	Violation *core.Violation
	Err       error
}

// Correct reports whether the outcome matches the exploit's expectation.
func (o *Outcome) Correct() bool {
	if o.Err != nil && o.Violation == nil {
		return false
	}
	if o.Exploit.Expect == core.VNone {
		return !o.Detected
	}
	return o.Detected && o.Violation.Kind == o.Exploit.Expect
}

// String renders the outcome.
func (o *Outcome) String() string {
	status := "MISSED"
	if o.Correct() {
		status = "ok"
	}
	got := "none"
	if o.Violation != nil {
		got = o.Violation.Kind.String()
	}
	return fmt.Sprintf("[%s] %-10s %-34s expect=%-20s got=%s",
		status, o.Exploit.Suite, o.Exploit.Name, o.Exploit.Expect, got)
}

// Run executes the exploit on the given protection variant and reports the
// outcome.
func Run(e *Exploit, variant decode.Variant) *Outcome {
	out := &Outcome{Exploit: e}
	prog, err := e.Build()
	if err != nil {
		out.Err = err
		return out
	}
	cfg := pipeline.DefaultConfig()
	cfg.Variant = variant
	cfg.StopOnViolation = true
	cfg.MaxInsts = 2_000_000
	sim, err := pipeline.NewSim(prog, cfg, 1)
	if err != nil {
		out.Err = err
		return out
	}
	_, rerr := sim.Run()
	if v, ok := rerr.(*core.Violation); ok {
		out.Detected = true
		out.Violation = v
	} else if rerr != nil {
		out.Err = rerr
	} else if len(sim.Violations) > 0 {
		out.Detected = true
		out.Violation = sim.Violations[0]
	}
	return out
}

// All returns every exploit across the three suites plus the
// false-positive probes.
func All() []*Exploit {
	var out []*Exploit
	out = append(out, RIPE()...)
	out = append(out, ASanSuite()...)
	out = append(out, How2Heap()...)
	out = append(out, FalsePositiveProbes()...)
	return out
}

// RunSuite runs every exploit in the named suite under the default
// prediction-driven variant and returns the outcomes.
func RunSuite(suite string) []*Outcome {
	var outs []*Outcome
	for _, e := range All() {
		if e.Suite != suite {
			continue
		}
		outs = append(outs, Run(e, decode.VariantMicrocodePrediction))
	}
	return outs
}

// Summary tallies outcomes: total, correctly handled, and detected by
// violation class.
type Summary struct {
	Total    int
	Correct  int
	ByClass  map[core.ViolationKind]int
	Failures []*Outcome
}

// Summarize aggregates outcomes.
func Summarize(outs []*Outcome) Summary {
	s := Summary{ByClass: make(map[core.ViolationKind]int)}
	for _, o := range outs {
		s.Total++
		if o.Correct() {
			s.Correct++
		} else {
			s.Failures = append(s.Failures, o)
		}
		if o.Violation != nil {
			s.ByClass[o.Violation.Kind]++
		}
	}
	return s
}

// Classes returns the violation classes in ByClass in ViolationKind
// order, so a histogram printed from it reads the same on every run.
func (s Summary) Classes() []core.ViolationKind {
	kinds := make([]core.ViolationKind, 0, len(s.ByClass))
	for k := range s.ByClass {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	return kinds
}

// JSON renders outcomes, in the order given, as the indented array of
// {Suite, Name, Expect, Got, Correct} rows that chexsec -json writes.
func JSON(outs []*Outcome) ([]byte, error) {
	type row struct {
		Suite, Name, Expect, Got string
		Correct                  bool
	}
	var rows []row
	for _, o := range outs {
		got := "none"
		if o.Violation != nil {
			got = o.Violation.Kind.String()
		}
		rows = append(rows, row{o.Exploit.Suite, o.Exploit.Name, o.Exploit.Expect.String(), got, o.Correct()})
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
