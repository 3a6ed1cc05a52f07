package experiments

import (
	"context"
	"fmt"
	"strings"

	"chex86/internal/elide"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// ElisionRow is one benchmark's proof-carrying check-elision measurement:
// the static proof/verification counts, and the dynamic effect of
// replaying the workload with the verified elision map installed
// (DESIGN.md §11).
type ElisionRow struct {
	Bench string `json:"bench"`

	Verified bool `json:"verified"` // the proof bundle passed the checker

	Sites    int `json:"sites"`    // static memory access sites
	Proofs   int `json:"proofs"`   // proofs emitted by the analyzer
	Elided   int `json:"elided"`   // proofs verified by the checker
	CtxElide int `json:"ctxElide"` // verified proofs qualified to a calling context
	Rejected int `json:"rejected"` // proofs the checker refused

	// Dynamic counts from the elision run.
	ChecksRun    uint64 `json:"checks_run"`
	ChecksElided uint64 `json:"checks_elided"`

	BaseCycles  uint64 `json:"base_cycles"`
	ElideCycles uint64 `json:"elide_cycles"`
}

// ElisionRate is the fraction of would-be capability checks suppressed
// by verified proofs.
func (r *ElisionRow) ElisionRate() float64 {
	total := r.ChecksRun + r.ChecksElided
	if total == 0 {
		return 0
	}
	return float64(r.ChecksElided) / float64(total)
}

// Speedup is baseline cycles over elision cycles (>1 = elision helps).
func (r *ElisionRow) Speedup() float64 {
	if r.ElideCycles == 0 {
		return 0
	}
	return float64(r.BaseCycles) / float64(r.ElideCycles)
}

// runWithElision executes one benchmark under cfg with an elision map
// installed (RunOne's measurement policy otherwise). It returns the
// finished Sim alongside the Result so callers can read host-side
// telemetry such as UopCacheStats.
func runWithElision(ctx context.Context, p *workload.Profile, cfg pipeline.Config,
	o *Options, m pipeline.ElisionMap) (*pipeline.Sim, *pipeline.Result, error) {
	prog, err := p.Build(o.Scale)
	if err != nil {
		return nil, nil, err
	}
	cfg.WarmupInsts = p.SetupInsts()
	cfg.MaxInsts = o.MaxInsts
	if cfg.MaxInsts > 0 {
		cfg.MaxInsts += cfg.WarmupInsts
	}
	cfg.MaxCycles = o.MaxCycles
	sim, err := pipeline.NewSim(prog, cfg, harts(p))
	if err != nil {
		return nil, nil, err
	}
	sim.SetElisionMap(m)
	res, err := o.runSim(ctx, sim)
	return sim, res, err
}

// RunElision measures proof-carrying check elision across the selected
// benchmarks under the prediction-driven variant: analyze, verify,
// replay with and without the verified map.
func RunElision(o Options) ([]ElisionRow, error) {
	var out []ElisionRow
	for _, p := range o.profiles() {
		prog, err := p.Build(o.Scale)
		if err != nil {
			return nil, err
		}
		rep, err := elide.ForProgram(prog, elide.Options{Harts: harts(p), ContextK: o.ContextK})
		if err != nil {
			return nil, fmt.Errorf("elision %s: %w", p.Name, err)
		}
		row := ElisionRow{
			Bench:    p.Name,
			Verified: rep.Verified,
			Sites:    rep.Stats.Sites,
			Proofs:   rep.Stats.Proofs,
			Elided:   rep.Stats.Elided,
			Rejected: rep.Stats.Rejected,
		}
		for i := range rep.Decisions {
			d := &rep.Decisions[i]
			if d.Status == "elide" && d.Ctx != "any" {
				row.CtxElide++
			}
		}

		ctx := context.Background()
		base, err := run(p, pipeline.DefaultConfig(), &o)
		if err != nil {
			return nil, fmt.Errorf("elision %s (baseline): %w", p.Name, err)
		}
		row.BaseCycles = base.Cycles

		cfg := pipeline.DefaultConfig()
		cfg.ElideChecks = true
		cfg.ElisionDigest = rep.Digest
		cfg.ElisionCtxK = rep.CtxK
		_, res, err := runWithElision(ctx, p, cfg, &o, rep.Map)
		if err != nil {
			return nil, fmt.Errorf("elision %s (elide): %w", p.Name, err)
		}
		row.ElideCycles = res.Cycles
		row.ChecksRun = res.ChecksRun
		row.ChecksElided = res.ChecksElided
		out = append(out, row)
	}
	return out, nil
}

// FormatElision renders the elision table. The trailing total line is
// the CI smoke contract: a nonzero elided count proves the proof chain
// end to end.
func FormatElision(rows []ElisionRow) string {
	var b strings.Builder
	b.WriteString("Proof-carrying check elision (prediction-driven variant, verified proofs only)\n")
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %8s %12s %12s %8s %8s\n",
		"benchmark", "sites", "proofs", "elided", "ctx", "reject", "checks", "suppressed", "rate", "speedup")
	var checks, suppressed uint64
	for i := range rows {
		r := &rows[i]
		fmt.Fprintf(&b, "%-14s %8d %8d %8d %8d %8d %12d %12d %7.2f%% %7.3fx\n",
			r.Bench, r.Sites, r.Proofs, r.Elided, r.CtxElide, r.Rejected,
			r.ChecksRun, r.ChecksElided, 100*r.ElisionRate(), r.Speedup())
		checks += r.ChecksRun
		suppressed += r.ChecksElided
	}
	rate := 0.0
	if checks+suppressed > 0 {
		rate = float64(suppressed) / float64(checks+suppressed)
	}
	fmt.Fprintf(&b, "total: checks=%d elided=%d (rate %.2f%%)\n", checks, suppressed, 100*rate)
	return b.String()
}
