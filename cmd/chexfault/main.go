// Command chexfault runs a seeded fault-injection campaign against the
// CHEx86 security substrate and emits a JSON resilience report.
//
// A campaign simulates every workload × variant combination once per
// injection site, corrupting capability metadata, dropping metadata cache
// lines, poisoning the pointer-reload predictor and forcing context-switch
// state loss — then classifies each run against the fail-closed contract
// (detected / degraded / perf-only; silent outcomes and panics fail the
// campaign and the exit status).
//
// Usage:
//
//	chexfault -seed 42
//	chexfault -workloads mcf,xalancbmk -variants always-on,prediction -faults 15
//	chexfault -sites cap-table,ctx-switch -o report.json
//	chexfault -pool -cache-dir .chexcampaign   # sharded + memoized cells
//
// With -pool, the campaign's workload × variant × site cells run
// concurrently on the campaign worker pool and are memoized in the
// content-addressed result cache; per-run RNG seeds derive from the run's
// coordinates, never execution order, so the merged report is
// byte-identical to the sequential one.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"chex86/internal/campaign"
	"chex86/internal/faultinject"
)

func main() {
	seed := flag.Uint64("seed", 1, "campaign seed (equal seeds produce byte-identical reports)")
	workloads := flag.String("workloads", "mcf,xalancbmk", "comma-separated benchmark names")
	variantsFlag := flag.String("variants", "always-on,prediction", "comma-separated protection variants")
	sitesFlag := flag.String("sites", "", "comma-separated injection sites (default: all)")
	faults := flag.Int("faults", 15, "fault quota per run")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	insts := flag.Uint64("insts", 40000, "post-warmup instruction budget per run")
	maxCycles := flag.Uint64("max-cycles", 5000000, "watchdog cycle budget per run")
	out := flag.String("o", "", "write the JSON report to this file (default: stdout)")
	quiet := flag.Bool("q", false, "suppress the summary line on stderr")
	pool := flag.Bool("pool", false, "run campaign cells concurrently on the sharded campaign worker pool")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory for -pool (empty disables caching)")
	workers := flag.Int("workers", 0, "pool shards for -pool (0 = GOMAXPROCS)")
	flag.Parse()

	cfg := faultinject.Config{
		Seed:         *seed,
		Workloads:    split(*workloads),
		Variants:     split(*variantsFlag),
		FaultsPerRun: *faults,
		Scale:        *scale,
		MaxInsts:     *insts,
		MaxCycles:    *maxCycles,
	}
	for _, s := range split(*sitesFlag) {
		cfg.Sites = append(cfg.Sites, faultinject.Site(s))
	}

	run := faultinject.Run
	if *pool {
		run = func(cfg faultinject.Config) (*faultinject.Report, error) {
			return runPooled(cfg, *cacheDir, *workers)
		}
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chexfault:", err)
		os.Exit(2)
	}
	data, err := rep.JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "chexfault:", err)
		os.Exit(2)
	}
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "chexfault:", err)
		os.Exit(2)
	}

	t := rep.Totals
	if !*quiet {
		fmt.Fprintf(os.Stderr,
			"chexfault: %d runs, %d faults: %d detected, %d degraded, %d perf-only, %d silent, %d panics, %d errors — %s\n",
			t.Runs, t.Faults, t.Detected, t.Degraded, t.PerfOnly, t.Silent, t.Panics, t.Errors, passFail(rep.Pass))
	}
	if !rep.Pass {
		os.Exit(1)
	}
}

// runPooled shards the campaign into cells, executes them on the campaign
// worker pool (memoized when a cache directory is given), and merges the
// per-cell reports back into the sequential report's byte-identical form.
func runPooled(cfg faultinject.Config, cacheDir string, workers int) (*faultinject.Report, error) {
	var cache *campaign.Cache
	if cacheDir != "" {
		var err error
		if cache, err = campaign.OpenCache(cacheDir); err != nil {
			return nil, err
		}
	}
	opts := campaign.Options{Workers: workers}
	if cache != nil {
		// Assign only when present: a typed-nil *Cache in the interface
		// field would read as "cache configured".
		opts.Cache = cache
	}
	p := campaign.NewPool(opts)
	defer p.Close()

	var jobs []*campaign.Job
	for _, cell := range cfg.Cells() {
		j, err := p.Submit(campaign.FaultSpec(cell))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	var cells []*faultinject.Report
	for _, j := range jobs {
		res, err := j.Wait(context.Background())
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", j.Status().Workload, err)
		}
		cells = append(cells, res.Fault)
	}
	return faultinject.Merge(cfg, cells), nil
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

func split(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
