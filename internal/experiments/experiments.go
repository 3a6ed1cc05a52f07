// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VII): Figure 1 (CVE data), Figure 3 (allocation
// behavior), Table I (rule database validation), Table II (temporal
// pointer patterns), Table III (machine configuration), Table IV
// (comparison with prior techniques), Figure 6 (normalized performance and
// micro-op expansion across protection variants), Figure 7 (capability and
// alias cache miss rates), Figure 8 (alias misprediction rate and squash
// time), and Figure 9 (memory storage overhead and bandwidth).
//
// Absolute numbers depend on the synthetic workload substrate (see
// DESIGN.md §2); the harness exists to reproduce the paper's shapes:
// orderings, ratios, and outliers.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/patterns"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// Options scales the harness.
type Options struct {
	// Scale multiplies workload round counts (1 = full harness runs).
	Scale float64
	// MaxInsts bounds per-run macro-ops (0 = run to completion).
	MaxInsts uint64
	// Benches restricts the benchmark set (nil = full catalog).
	Benches []string
	// MaxCycles bounds each run in simulated cycles; exceeding it is a
	// structured livelock error (0 = unbounded).
	MaxCycles uint64
	// Timeout bounds each run in wall-clock time (0 = unbounded).
	Timeout time.Duration
	// ContextK is the call-string depth for elision experiments
	// (0 = the default k = 2, -1 = context-insensitive proofs only).
	ContextK int
}

// runSim executes one configured simulation under the harness's
// cancellation policy: the caller's context layered with Options.Timeout.
func (o *Options) runSim(ctx context.Context, sim *pipeline.Sim) (*pipeline.Result, error) {
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	return sim.RunContext(ctx)
}

// DefaultOptions returns full-scale harness options.
func DefaultOptions() Options { return Options{Scale: 1} }

func (o *Options) profiles() []*workload.Profile {
	if len(o.Benches) == 0 {
		return workload.Catalog()
	}
	var out []*workload.Profile
	for _, n := range o.Benches {
		if p := workload.ByName(n); p != nil {
			out = append(out, p)
		}
	}
	return out
}

func harts(p *workload.Profile) int {
	if p.Threads > 0 {
		return p.Threads
	}
	return 1
}

// run executes one benchmark under one config, excluding the program's
// setup phase from measurement (SimPoint-style warmup).
func run(p *workload.Profile, cfg pipeline.Config, o *Options) (*pipeline.Result, error) {
	return RunOne(context.Background(), p, cfg, o)
}

// RunOne executes one benchmark under one config with the harness's
// measurement policy (setup excluded via SimPoint-style warmup, instruction
// and cycle budgets applied). It is the single-run primitive shared by the
// figure runners above and the campaign subsystem's bench jobs; ctx cancels
// the run (campaign workers thread their pool context through here).
func RunOne(ctx context.Context, p *workload.Profile, cfg pipeline.Config, o *Options) (*pipeline.Result, error) {
	prog, err := p.Build(o.Scale)
	if err != nil {
		return nil, err
	}
	cfg.WarmupInsts = p.SetupInsts()
	cfg.MaxInsts = o.MaxInsts
	if cfg.MaxInsts > 0 {
		cfg.MaxInsts += cfg.WarmupInsts
	}
	cfg.MaxCycles = o.MaxCycles
	sim, err := pipeline.NewSim(prog, cfg, harts(p))
	if err != nil {
		return nil, err
	}
	return o.runSim(ctx, sim)
}

// ---------------------------------------------------------------------
// Figure 6: performance and micro-op expansion across variants.
// ---------------------------------------------------------------------

// Fig6Row holds one benchmark's results across all protection variants.
type Fig6Row struct {
	Bench   string
	Suite   string
	Results [decode.NumVariants]*pipeline.Result
}

// Norm returns variant v's performance normalized to the insecure baseline
// (1.0 = baseline speed; lower is slower), Figure 6 top.
func (r *Fig6Row) Norm(v decode.Variant) float64 {
	base := r.Results[decode.VariantInsecure]
	res := r.Results[v]
	if base == nil || res == nil || res.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(res.Cycles)
}

// NormExpansion returns variant v's dynamic micro-op expansion normalized
// to the baseline, Figure 6 bottom.
func (r *Fig6Row) NormExpansion(v decode.Variant) float64 {
	base := r.Results[decode.VariantInsecure]
	res := r.Results[v]
	if base == nil || res == nil || base.UopExpansion() == 0 {
		return 0
	}
	return res.UopExpansion() / base.UopExpansion()
}

// fig6Variants are the six configurations of the paper's Figure 6 (the
// Watchdog-style variant is the separate Section VII-C comparison).
var fig6Variants = []decode.Variant{
	decode.VariantInsecure,
	decode.VariantHardwareOnly,
	decode.VariantBinaryTranslation,
	decode.VariantMicrocodeAlwaysOn,
	decode.VariantMicrocodePrediction,
	decode.VariantASan,
}

// RunFig6 runs every benchmark under all six protection variants.
func RunFig6(o Options) ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, p := range o.profiles() {
		row := Fig6Row{Bench: p.Name, Suite: p.Suite}
		for _, v := range fig6Variants {
			cfg := pipeline.DefaultConfig()
			cfg.Variant = v
			res, err := run(p, cfg, &o)
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", p.Name, v, err)
			}
			row.Results[v] = res
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Summary aggregates Figure 6 into the paper's headline numbers.
type Summary struct {
	SPECSlowdownPct    float64 // prediction-driven vs baseline
	PARSECSlowdownPct  float64
	SpeedupVsASanSPEC  float64 // prediction-driven speedup over ASan (1.59x in the paper)
	SpeedupVsASanPARSC float64
	BTSpeedupPct       float64 // microcode vs binary translation (12% in the paper)
}

// Summarize computes suite-level geometric means from Figure 6 rows.
func Summarize(rows []Fig6Row) Summary {
	geo := func(suite string, f func(*Fig6Row) float64) float64 {
		prod, n := 1.0, 0
		for i := range rows {
			if suite != "" && rows[i].Suite != suite {
				continue
			}
			v := f(&rows[i])
			if v <= 0 {
				continue
			}
			prod *= v
			n++
		}
		if n == 0 {
			return 0
		}
		return pow(prod, 1/float64(n))
	}
	pred := decode.VariantMicrocodePrediction
	slowdown := func(suite string) float64 {
		g := geo(suite, func(r *Fig6Row) float64 { return r.Norm(pred) })
		if g == 0 {
			return 0 // no benchmarks from this suite in the run
		}
		return 100 * (1/g - 1)
	}
	var s Summary
	s.SPECSlowdownPct = slowdown(workload.SuiteSPEC)
	s.PARSECSlowdownPct = slowdown(workload.SuitePARSEC)
	s.SpeedupVsASanSPEC = geo(workload.SuiteSPEC, func(r *Fig6Row) float64 {
		return float64(r.Results[decode.VariantASan].Cycles) / float64(r.Results[pred].Cycles)
	})
	s.SpeedupVsASanPARSC = geo(workload.SuitePARSEC, func(r *Fig6Row) float64 {
		return float64(r.Results[decode.VariantASan].Cycles) / float64(r.Results[pred].Cycles)
	})
	s.BTSpeedupPct = 100 * (geo("", func(r *Fig6Row) float64 {
		return float64(r.Results[decode.VariantBinaryTranslation].Cycles) / float64(r.Results[pred].Cycles)
	}) - 1)
	return s
}

func pow(x, y float64) float64 { return math.Pow(x, y) }

// FormatFig6 renders Figure 6 (top and bottom) as text tables.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Figure 6 (top): Normalized Performance (1.0 = insecure baseline; higher is better)\n")
	fmt.Fprintf(&b, "%-14s", "benchmark")
	for _, v := range fig6Variants {
		fmt.Fprintf(&b, "%10s", shortVariant(v))
	}
	b.WriteByte('\n')
	for i := range rows {
		fmt.Fprintf(&b, "%-14s", rows[i].Bench)
		for _, v := range fig6Variants {
			fmt.Fprintf(&b, "%10.3f", rows[i].Norm(v))
		}
		b.WriteByte('\n')
	}
	b.WriteString("\nFigure 6 (bottom): Normalized uop Expansion (1.0 = baseline)\n")
	fmt.Fprintf(&b, "%-14s%10s%10s\n", "benchmark", "CHEx86", "ASan")
	for i := range rows {
		fmt.Fprintf(&b, "%-14s%10.2f%10.2f\n", rows[i].Bench,
			rows[i].NormExpansion(decode.VariantMicrocodePrediction),
			rows[i].NormExpansion(decode.VariantASan))
	}
	s := Summarize(rows)
	fmt.Fprintf(&b, "\nSummary: SPEC slowdown %.1f%% | PARSEC slowdown %.1f%% | vs ASan: %.2fx (SPEC) %.2fx (PARSEC) | vs BT: +%.1f%%\n",
		s.SPECSlowdownPct, s.PARSECSlowdownPct, s.SpeedupVsASanSPEC, s.SpeedupVsASanPARSC, s.BTSpeedupPct)
	return b.String()
}

func shortVariant(v decode.Variant) string {
	switch v {
	case decode.VariantInsecure:
		return "base"
	case decode.VariantHardwareOnly:
		return "hw-only"
	case decode.VariantBinaryTranslation:
		return "bintrans"
	case decode.VariantMicrocodeAlwaysOn:
		return "ucode-all"
	case decode.VariantMicrocodePrediction:
		return "ucode-prd"
	case decode.VariantASan:
		return "asan"
	}
	return "?"
}

// ---------------------------------------------------------------------
// Figure 7: capability cache and alias cache miss rates.
// ---------------------------------------------------------------------

// Fig7Row holds one benchmark's cache sensitivity results.
type Fig7Row struct {
	Bench        string
	CapMiss64    float64
	CapMiss128   float64
	AliasMiss256 float64
	AliasMiss512 float64
}

// RunFig7 sweeps the capability cache (64 vs 128 entries) and alias cache
// (256 vs 512 entries) under the prediction-driven variant.
func RunFig7(o Options) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, p := range o.profiles() {
		row := Fig7Row{Bench: p.Name}
		base := pipeline.DefaultConfig()
		res, err := run(p, base, &o)
		if err != nil {
			return nil, err
		}
		row.CapMiss64 = res.CapCache.MissRate()
		row.AliasMiss256 = res.AliasCache.MissRate()

		big := base
		big.CapCacheEntries = 128
		if res, err = run(p, big, &o); err != nil {
			return nil, err
		}
		row.CapMiss128 = res.CapCache.MissRate()

		big = base
		big.AliasCacheEntries = 512
		if res, err = run(p, big, &o); err != nil {
			return nil, err
		}
		row.AliasMiss512 = res.AliasCache.MissRate()
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig7 renders Figure 7 as a text table.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	b.WriteString("Figure 7: Capability (top) and Alias (bottom) Cache Miss Rates\n")
	fmt.Fprintf(&b, "%-14s%12s%12s%14s%14s\n", "benchmark", "cap 64e", "cap 128e", "alias 256e", "alias 512e")
	var s64, s128, a256, a512 float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s%11.1f%%%11.1f%%%13.1f%%%13.1f%%\n", r.Bench,
			100*r.CapMiss64, 100*r.CapMiss128, 100*r.AliasMiss256, 100*r.AliasMiss512)
		s64 += r.CapMiss64
		s128 += r.CapMiss128
		a256 += r.AliasMiss256
		a512 += r.AliasMiss512
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(&b, "%-14s%11.1f%%%11.1f%%%13.1f%%%13.1f%%\n", "average",
			100*s64/n, 100*s128/n, 100*a256/n, 100*a512/n)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 8: alias misprediction rate and squash time.
// ---------------------------------------------------------------------

// Fig8Row holds one benchmark's misprediction and squash results.
type Fig8Row struct {
	Bench         string
	Mispred1024   float64
	Mispred2048   float64
	SquashBasePct float64
	SquashCHExPct float64
	PNA0,
	P0AN,
	PMAN uint64
}

// RunFig8 sweeps the pointer-reload predictor (1024 vs 2048 entries) and
// compares squash time against the insecure baseline.
func RunFig8(o Options) ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, p := range o.profiles() {
		row := Fig8Row{Bench: p.Name}

		cfg := pipeline.DefaultConfig()
		cfg.PredictorEntries = 1024
		res, err := run(p, cfg, &o)
		if err != nil {
			return nil, err
		}
		row.Mispred1024 = res.Predictor.MispredictionRate()
		row.SquashCHExPct = res.SquashPct()
		row.PNA0, row.P0AN, row.PMAN = res.Predictor.PNA0, res.Predictor.P0AN, res.Predictor.PMAN

		cfg.PredictorEntries = 2048
		if res, err = run(p, cfg, &o); err != nil {
			return nil, err
		}
		row.Mispred2048 = res.Predictor.MispredictionRate()

		base := pipeline.DefaultConfig()
		base.Variant = decode.VariantInsecure
		if res, err = run(p, base, &o); err != nil {
			return nil, err
		}
		row.SquashBasePct = res.SquashPct()
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig8 renders Figure 8 as a text table.
func FormatFig8(rows []Fig8Row) string {
	var b strings.Builder
	b.WriteString("Figure 8: Pointer Alias Misprediction Rate (top) and % Time Squashing (bottom)\n")
	fmt.Fprintf(&b, "%-14s%12s%12s%14s%14s\n", "benchmark", "mis 1024e", "mis 2048e", "squash base", "squash CHEx")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s%11.1f%%%11.1f%%%13.2f%%%13.2f%%\n", r.Bench,
			100*r.Mispred1024, 100*r.Mispred2048, r.SquashBasePct, r.SquashCHExPct)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Figure 9: memory storage overhead and bandwidth.
// ---------------------------------------------------------------------

// Fig9Row holds one benchmark's memory-system results.
type Fig9Row struct {
	Bench       string
	BaseRSS     uint64
	ASanRSS     uint64
	CHExRSS     uint64
	BaseBWMBs   float64
	CHExBWMBs   float64
	ShadowBytes uint64
}

// RunFig9 measures resident-set and bandwidth impact.
func RunFig9(o Options) ([]Fig9Row, error) {
	var rows []Fig9Row
	for _, p := range o.profiles() {
		row := Fig9Row{Bench: p.Name}
		base := pipeline.DefaultConfig()
		base.Variant = decode.VariantInsecure
		res, err := run(p, base, &o)
		if err != nil {
			return nil, err
		}
		row.BaseRSS = res.UserRSS
		row.BaseBWMBs = res.BandwidthMBs()

		chex := pipeline.DefaultConfig()
		if res, err = run(p, chex, &o); err != nil {
			return nil, err
		}
		row.CHExRSS = res.UserRSS + res.ShadowRSS
		row.ShadowBytes = res.ShadowRSS
		row.CHExBWMBs = res.BandwidthMBs()

		asan := pipeline.DefaultConfig()
		asan.Variant = decode.VariantASan
		if res, err = run(p, asan, &o); err != nil {
			return nil, err
		}
		// ASan's shadow is 1/8th of addressable user memory it touches,
		// plus redzones and quarantine already reflected in user RSS.
		row.ASanRSS = res.UserRSS + res.UserRSS/8
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig9 renders Figure 9 as a text table.
func FormatFig9(rows []Fig9Row) string {
	var b strings.Builder
	b.WriteString("Figure 9: Memory Storage Overhead (top) and Memory Bandwidth (bottom)\n")
	fmt.Fprintf(&b, "%-14s%12s%12s%12s%14s%14s\n",
		"benchmark", "base RSS", "ASan RSS", "CHEx RSS", "base MB/s", "CHEx MB/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s%12s%12s%12s%14.1f%14.1f\n", r.Bench,
			fmtBytes(r.BaseRSS), fmtBytes(r.ASanRSS), fmtBytes(r.CHExRSS),
			r.BaseBWMBs, r.CHExBWMBs)
	}
	return b.String()
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// ---------------------------------------------------------------------
// Table II: temporal pointer access patterns.
// ---------------------------------------------------------------------

// Table2Result holds the per-benchmark pattern classification summary.
type Table2Result struct {
	Bench   string
	Summary map[patterns.Kind]int
}

// RunTable2 collects per-PC pointer-reload PID sequences from a
// prediction-driven run and classifies them into the Table II patterns.
func RunTable2(o Options) ([]Table2Result, error) {
	var out []Table2Result
	for _, p := range o.profiles() {
		prog, err := p.Build(o.Scale)
		if err != nil {
			return nil, err
		}
		cfg := pipeline.DefaultConfig()
		cfg.MaxInsts = o.MaxInsts
		cfg.MaxCycles = o.MaxCycles
		sim, err := pipeline.NewSim(prog, cfg, harts(p))
		if err != nil {
			return nil, err
		}
		col := patterns.NewCollector(0)
		sim.SetReloadHook(func(pc uint64, pid core.PID) { col.Observe(pc, pid) })
		if _, err := o.runSim(context.Background(), sim); err != nil {
			return nil, err
		}
		out = append(out, Table2Result{Bench: p.Name, Summary: col.Summary()})
	}
	return out, nil
}

// FormatTable2 renders the aggregate pattern distribution.
func FormatTable2(results []Table2Result) string {
	var b strings.Builder
	b.WriteString("Table II: Temporal Pointer Access Patterns (pointer-reload PCs by pattern)\n")
	fmt.Fprintf(&b, "%-14s", "benchmark")
	for k := patterns.Kind(0); k < patterns.NumKinds; k++ {
		fmt.Fprintf(&b, "%20s", k)
	}
	b.WriteByte('\n')
	totals := make(map[patterns.Kind]int)
	for _, r := range results {
		fmt.Fprintf(&b, "%-14s", r.Bench)
		for k := patterns.Kind(0); k < patterns.NumKinds; k++ {
			fmt.Fprintf(&b, "%20d", r.Summary[k])
			totals[k] += r.Summary[k]
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-14s", "total")
	for k := patterns.Kind(0); k < patterns.NumKinds; k++ {
		fmt.Fprintf(&b, "%20d", totals[k])
	}
	b.WriteByte('\n')
	return b.String()
}
