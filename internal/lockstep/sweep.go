package lockstep

import (
	"context"
	"encoding/json"
	"fmt"

	"chex86/internal/emu"
	"chex86/internal/faultinject"
	"chex86/internal/lockstep/progen"
)

// SweepSpec is the deterministic description of a lockstep campaign:
// every per-program seed and mutation decision derives from Seed and the
// program's index via faultinject.DeriveSeed, so a failing program
// reproduces from (Seed, index) alone.
type SweepSpec struct {
	Seed     uint64 `json:"seed"`
	Programs int    `json:"programs"`

	// Generator shape (0 = default: 40 steps, 4 × 128-byte buffers,
	// 3-deep call tree).
	Steps    int   `json:"steps,omitempty"`
	Bufs     int   `json:"bufs,omitempty"`
	BufBytes int64 `json:"bufBytes,omitempty"`
	Funcs    int   `json:"funcs,omitempty"`

	// MutationPct is the percentage of programs carrying an injected
	// labeled violation (0 = default 40, -1 = none).
	MutationPct int `json:"mutationPct,omitempty"`

	// Harness knobs (0 = defaults: stride 64, 500k macro-ops,
	// crosscheck every 16th safe program; CrosscheckEvery -1 disables).
	Stride          uint64 `json:"stride,omitempty"`
	MaxInsts        uint64 `json:"maxInsts,omitempty"`
	CrosscheckEvery int    `json:"crosscheckEvery,omitempty"`

	// Conditions overrides the run matrix (nil = DefaultConditions).
	Conditions []Condition `json:"conditions,omitempty"`
}

// Normalized returns the spec with defaults filled in.
func (s SweepSpec) Normalized() SweepSpec {
	if s.Programs < 0 {
		s.Programs = 0
	}
	if s.Steps <= 0 {
		s.Steps = 40
	}
	if s.MutationPct == 0 {
		s.MutationPct = 40
	}
	if s.MutationPct < 0 {
		s.MutationPct = 0
	}
	if s.MutationPct > 100 {
		s.MutationPct = 100
	}
	if s.Stride == 0 {
		s.Stride = 64
	}
	if s.MaxInsts == 0 {
		s.MaxInsts = 500_000
	}
	if s.CrosscheckEvery == 0 {
		s.CrosscheckEvery = 16
	}
	if s.CrosscheckEvery < 0 {
		s.CrosscheckEvery = 0
	}
	if len(s.Conditions) == 0 {
		s.Conditions = DefaultConditions()
	}
	return s
}

// programPlan derives program #idx's generator seed and mutation from the
// sweep seed — pure functions of (Seed, idx).
func (s SweepSpec) programPlan(idx int) (seed uint64, mutation progen.Mutation) {
	seed = faultinject.DeriveSeed(s.Seed, "lockstep", "prog", fmt.Sprintf("%d", idx))
	r := newPlanRNG(faultinject.DeriveSeed(seed, "mut"))
	if int(r.next()%100) < s.MutationPct {
		muts := progen.Mutations()
		mutation = muts[int(r.next()%uint64(len(muts)))]
	}
	return seed, mutation
}

// planRNG is a tiny xorshift64 for plan decisions (mirrors progen's).
type planRNG struct{ s uint64 }

func newPlanRNG(seed uint64) *planRNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &planRNG{s: seed}
}

func (r *planRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// ProgramFailure is one failing program with its shrunk reproducer.
type ProgramFailure struct {
	Index    int            `json:"index"`
	Seed     uint64         `json:"seed"`
	Mutation string         `json:"mutation,omitempty"`
	Kind     string         `json:"kind"`
	Cond     string         `json:"cond,omitempty"`
	Detail   string         `json:"detail"`
	Steps    int            `json:"steps"`
	Genome   *progen.Genome `json:"genome,omitempty"`
}

// SweepReport aggregates a sweep. Every field is deterministic for a
// bounded spec (fixed field order, no maps, no wall-clock values), so two
// runs of one spec can be compared with cmp.
type SweepReport struct {
	Schema     string `json:"schema"`
	Seed       uint64 `json:"seed"`
	Programs   int    `json:"programs"`
	Conditions int    `json:"conditions"`

	Commits     uint64 `json:"commits"`
	ElidedSites int    `json:"elidedSites"`

	Safe     int `json:"safe"`
	Mutated  int `json:"mutated"`
	Detected int `json:"detected"`

	Divergences         int `json:"divergences"`
	InvariantViolations int `json:"invariantViolations"`
	ReportMismatches    int `json:"reportMismatches"`
	FalsePositives      int `json:"falsePositives"`
	LabelMisses         int `json:"labelMisses"`
	Errors              int `json:"errors"`

	Crosschecks              int `json:"crosschecks"`
	CrosscheckFalseNegatives int `json:"crosscheckFalseNegatives"`

	ShrinkAttempts int `json:"shrinkAttempts"`

	Failures []ProgramFailure `json:"failures,omitempty"`
}

// SweepSchema versions the report layout.
const SweepSchema = "lockstep-sweep/v1"

// Failed reports whether the sweep found any harness failure.
func (r *SweepReport) Failed() bool {
	return r.Divergences > 0 || r.InvariantViolations > 0 || r.ReportMismatches > 0 ||
		r.FalsePositives > 0 || r.LabelMisses > 0 || r.Errors > 0 ||
		r.CrosscheckFalseNegatives > 0 || len(r.Failures) > 0
}

// JSON renders the report with stable indentation.
func (r *SweepReport) JSON() []byte {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("lockstep: report marshal: %v", err))
	}
	return append(data, '\n')
}

// SweepOptions carries the sweep's side-channels: none affect the
// deterministic report content.
type SweepOptions struct {
	// Corpus persists shrunk reproducers (nil = in-report only).
	Corpus *Corpus
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
	// Tamper corrupts the differ's view of pipeline commits (the
	// harness's own mutation test; never set in production).
	Tamper func(rec *emu.Rec)
	// ShrinkAttempts bounds minimization per failure (default 200).
	ShrinkAttempts int
	// MaxFailures stops the sweep early once this many failing programs
	// were recorded and shrunk (default 8).
	MaxFailures int
}

// maxReportFailures bounds report size.
const maxReportFailures = 8

// Sweep runs the lockstep harness over spec's program range. With
// Programs > 0 the sweep is bounded and the returned report is a pure
// function of the spec; with Programs == 0 it runs until ctx is done
// (budgeted mode — the CLI's long-campaign loop) and returns a nil error
// on cancellation. A bounded sweep interrupted by ctx returns ctx's error
// so a partial report is never taken for a finished one.
func Sweep(ctx context.Context, spec SweepSpec, opt SweepOptions) (*SweepReport, error) {
	spec = spec.Normalized()
	logf := opt.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	maxFailures := opt.MaxFailures
	if maxFailures <= 0 {
		maxFailures = maxReportFailures
	}
	rep := &SweepReport{
		Schema:     SweepSchema,
		Seed:       spec.Seed,
		Conditions: len(spec.Conditions),
	}
	runOpt := RunOptions{Stride: spec.Stride, MaxInsts: spec.MaxInsts, Tamper: opt.Tamper}
	genOpt := progen.Options{Steps: spec.Steps, Bufs: spec.Bufs, BufBytes: spec.BufBytes, Funcs: spec.Funcs}

	for i := 0; spec.Programs == 0 || i < spec.Programs; i++ {
		if ctx.Err() != nil {
			if spec.Programs == 0 {
				return rep, nil // budget exhausted: the open-ended mode's normal exit
			}
			return rep, ctx.Err()
		}
		seed, mutation := spec.programPlan(i)
		gopt := genOpt
		gopt.Mutation = mutation
		g := progen.Generate(seed, gopt)

		pr := RunGenome(g, spec.Conditions, runOpt)
		rep.Programs++
		rep.Commits += pr.Commits
		rep.ElidedSites += pr.Elided
		if mutation == progen.MutNone {
			rep.Safe++
		} else {
			rep.Mutated++
		}

		if pr.Failure == nil && mutation == progen.MutNone &&
			spec.CrosscheckEvery > 0 && i%spec.CrosscheckEvery == 0 {
			prog, err := g.Build()
			if err == nil {
				fns, cerr := crosscheckProgram(ctx, prog, spec.MaxInsts)
				switch {
				case cerr != nil && ctx.Err() != nil:
					// Cancellation mid-crosscheck; handled at loop top.
				case cerr != nil:
					pr.Failure = &Failure{Kind: "error", Detail: "crosscheck: " + cerr.Error()}
				default:
					rep.Crosschecks++
					if fns > 0 {
						rep.CrosscheckFalseNegatives += fns
						pr.Failure = &Failure{Kind: "invariant",
							Detail: fmt.Sprintf("ptrflow crosscheck proved %d tracker false negatives", fns)}
					}
				}
			}
		}

		if pr.Failure == nil {
			if mutation != progen.MutNone {
				rep.Detected++
			}
			continue
		}

		f := pr.Failure
		switch f.Kind {
		case "divergence":
			rep.Divergences++
		case "invariant":
			rep.InvariantViolations++
		case "report-mismatch":
			rep.ReportMismatches++
		case "false-positive":
			rep.FalsePositives++
		case "label":
			rep.LabelMisses++
		default:
			rep.Errors++
		}
		logf("program %d (seed=%#x mut=%q) FAILED: %s", i, seed, mutation, f)

		// Minimize: a candidate reproduces when the harness fails it for
		// the same reason class.
		shrunk, attempts := Shrink(g, func(cand *progen.Genome) bool {
			cr := RunGenome(cand, spec.Conditions, runOpt)
			return cr.Failure != nil && cr.Failure.Kind == f.Kind
		}, opt.ShrinkAttempts)
		rep.ShrinkAttempts += attempts
		logf("  shrunk %d -> %d steps in %d attempts", len(g.Steps), len(shrunk.Steps), attempts)

		pf := ProgramFailure{
			Index:    i,
			Seed:     seed,
			Mutation: string(mutation),
			Kind:     f.Kind,
			Cond:     f.Cond,
			Detail:   f.Detail,
			Steps:    len(shrunk.Steps),
			Genome:   shrunk,
		}
		if opt.Corpus != nil {
			if path, err := opt.Corpus.PutRepro(shrunk); err == nil {
				logf("  repro: %s", path)
			} else {
				logf("  repro persist failed: %v", err)
			}
		}
		rep.Failures = append(rep.Failures, pf)
		if len(rep.Failures) >= maxFailures {
			logf("stopping after %d failures", len(rep.Failures))
			break
		}
	}
	return rep, nil
}
