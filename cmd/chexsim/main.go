// Command chexsim runs one synthetic benchmark on the simulated CHEx86
// machine under a chosen protection variant and prints the run's
// statistics.
//
// Usage:
//
//	chexsim -bench mcf -variant prediction
//	chexsim -bench canneal -variant asan -scale 0.5
//	chexsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/patterns"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

func main() {
	bench := flag.String("bench", "perlbench", "benchmark name (see -list)")
	variant := flag.String("variant", "prediction", "protection variant: baseline|hardware|bintrans|always-on|prediction|asan|watchdog")
	scale := flag.Float64("scale", 1.0, "workload scale factor (round-count multiplier)")
	insts := flag.Uint64("insts", 0, "macro-instruction budget (0 = run to completion)")
	checker := flag.Bool("checker", false, "enable the hardware checker co-processor")
	trace := flag.Int("trace", 0, "dump pipeline timestamps for the first N micro-ops")
	pats := flag.Bool("patterns", false, "classify temporal pointer access patterns per reload site (Table II)")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for the run (0 = none); expiry is a non-zero exit")
	maxCycles := flag.Uint64("max-cycles", 0, "simulated-cycle budget (0 = none); exceeding it reports a structured livelock error")
	list := flag.Bool("list", false, "list available benchmarks and exit")
	flag.Parse()

	if *list {
		for _, p := range workload.Catalog() {
			fmt.Printf("%-14s %-12s threads=%d  %s\n", p.Name, p.Suite, max(1, p.Threads), p.About)
		}
		return
	}

	v, ok := decode.ParseVariant(*variant)
	if !ok {
		fmt.Fprintf(os.Stderr, "chexsim: unknown variant %q\n", *variant)
		os.Exit(2)
	}

	p := workload.ByName(*bench)
	if p == nil {
		fmt.Fprintf(os.Stderr, "chexsim: unknown benchmark %q (try -list)\n", *bench)
		os.Exit(2)
	}
	prog, err := p.Build(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chexsim:", err)
		os.Exit(1)
	}
	harts := max(1, p.Threads)
	cfg := pipeline.DefaultConfig()
	cfg.WarmupInsts = p.SetupInsts()
	cfg.Variant = v
	cfg.MaxInsts = *insts
	if cfg.MaxInsts > 0 {
		cfg.MaxInsts += cfg.WarmupInsts
	}
	cfg.EnableChecker = *checker
	cfg.MaxCycles = *maxCycles
	sim, err := pipeline.NewSim(prog, cfg, harts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chexsim:", err)
		os.Exit(1)
	}
	var col *patterns.Collector
	if *pats {
		col = patterns.NewCollector(0)
		sim.SetReloadHook(func(pc uint64, pid core.PID) { col.Observe(pc, pid) })
	}
	if *trace > 0 {
		left := *trace
		fmt.Printf("%-8s %-10s %-30s %8s %8s %8s %8s %8s\n",
			"core", "rip", "uop", "fetch", "disp", "issue", "done", "commit")
		sim.TraceUop = func(t pipeline.UopTrace) {
			if left <= 0 {
				return
			}
			left--
			fmt.Printf("%-8d %-10s %-30s %8d %8d %8d %8d %8d\n",
				t.Core, fmt.Sprintf("%#x", t.RIP), t.Uop, t.Fetch, t.Dispatch, t.Issue, t.Done, t.Commit)
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := sim.RunContext(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chexsim:", err)
		os.Exit(1)
	}

	fmt.Printf("benchmark        %s (%s, %d hart(s))\n", p.Name, p.Suite, harts)
	fmt.Printf("variant          %s\n", v)
	fmt.Printf("instructions     %d (after %d warmup)\n", res.MacroInsts, cfg.WarmupInsts)
	fmt.Printf("cycles           %d (IPC %.2f, %.3f ms simulated)\n", res.Cycles, res.IPC(), res.Seconds()*1e3)
	fmt.Printf("micro-ops        %d native + %d injected (expansion %.2f)\n",
		res.NativeUops, res.InjectedUops, res.UopExpansion())
	fmt.Printf("cap cache        %.2f%% miss (%d checks)\n", 100*res.CapCache.MissRate(), res.ChecksRun)
	fmt.Printf("alias cache      %.2f%% miss, predictor %.2f%% mispredict (PNA0 %d / P0AN %d / PMAN %d)\n",
		100*res.AliasCache.MissRate(), 100*res.Predictor.MispredictionRate(),
		res.Predictor.PNA0, res.Predictor.P0AN, res.Predictor.PMAN)
	fmt.Printf("branches         %.2f%% mispredict, %.2f%% of time squashing\n",
		100*res.Branch.MispredictRate(), res.SquashPct())
	fmt.Printf("memory           L1D %.1f%% / L2 %.1f%% / LLC %.1f%% miss, %.1f MB/s DRAM\n",
		100*res.L1D.MissRate(), 100*res.L2.MissRate(), 100*res.LLC.MissRate(), res.BandwidthMBs())
	fmt.Printf("footprint        user %s + shadow %s\n", kb(res.UserRSS), kb(res.ShadowRSS))
	if *checker {
		fmt.Printf("checker          %d validations, %d mismatches\n",
			res.Checker.Validations, res.Checker.Mismatches)
	}
	if n := len(res.Violations); n > 0 {
		fmt.Printf("VIOLATIONS       %d (first: %v)\n", n, res.Violations[0])
	}
	if col != nil {
		fmt.Println()
		fmt.Println("Temporal pointer access patterns (Table II), per reload site:")
		for _, pc := range col.PCs() {
			seq := col.Seq(pc)
			if len(seq) < 4 {
				continue
			}
			fmt.Printf("  rip=%#-10x %6d reloads  %s\n", pc, len(seq), patterns.Classify(seq))
		}
		fmt.Println()
		fmt.Print(col.Format())
	}
}

func kb(b uint64) string { return fmt.Sprintf("%.1fKB", float64(b)/1024) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
