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
//
// Per-run RNG seeds derive from the run's coordinates, never execution
// order, so the same campaign submitted to chexd's fabric
// (POST /api/v1/fabric/campaign with a "fault" config) merges its
// workload × variant × site cells into a report byte-identical to this
// one.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

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

	rep, err := faultinject.Run(cfg)
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
