// Command chexbench regenerates the tables and figures of the paper's
// evaluation (Section VII) on the simulated machine.
//
// Usage:
//
//	chexbench -all                 # everything (the full harness)
//	chexbench -fig 6               # one figure
//	chexbench -table 1             # one table
//	chexbench -fig 6 -scale 0.25   # quicker, scaled run
//	chexbench -benches mcf,lbm     # restrict the benchmark set
//	chexbench -fig 6 -cpuprofile cpu.pprof   # profile the host hot loop
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"chex86/internal/cvedata"
	"chex86/internal/experiments"
)

// stopProfiles flushes any active -cpuprofile/-memprofile capture; exit
// routes every termination path through it so a profiled run that fails
// still leaves a usable profile behind.
var stopProfiles = func() {}

func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (1, 3, 6, 7, 8, 9)")
	table := flag.Int("table", 0, "table to regenerate (1, 2, 3, 4; 5 = the §VII-C Watchdog comparison)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	insts := flag.Uint64("insts", 0, "macro-instruction budget per run (0 = completion)")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline per simulation run (0 = none); expiry is a non-zero exit")
	maxCycles := flag.Uint64("max-cycles", 0, "simulated-cycle budget per run (0 = none); exceeding it reports a structured livelock error")
	benches := flag.String("benches", "", "comma-separated benchmark subset")
	jsonDir := flag.String("json", "", "also write results as JSON into this directory")
	contextBench := flag.String("context", "", "run the context-sensitivity sweep for this benchmark")
	sweepBench := flag.String("sweep", "", "run the structure-sizing sweeps (cap cache / alias cache / predictor) for this benchmark")
	report := flag.String("report", "", "write a complete markdown report to this file (runs everything)")
	stamp := flag.String("stamp", "", "run identifier embedded in the report header (default: current time; pass a fixed stamp for byte-reproducible reports)")
	coverage := flag.Bool("coverage", false, "run the static pointer-flow cross-check and report tracker coverage")
	elideMode := flag.Bool("elide", false, "run proof-carrying check elision: analyze, verify proofs, replay with the elision map, report elision rate and speedup")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	ctxK := flag.Int("ctxk", 0, "call-string depth for -elide proofs (0 = default k=2, -1 = context-insensitive)")
	flag.Parse()

	if *cpuprofile != "" || *memprofile != "" {
		stop, err := startProfiles(*cpuprofile, *memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chexbench:", err)
			exit(1)
		}
		stopProfiles = stop
		defer stopProfiles()
	}

	// The wall-clock read lives here, in the CLI, not in
	// internal/experiments: the library's outputs stay byte-stable and
	// the determinism linter (chexvet) keeps it that way.
	if *stamp == "" {
		*stamp = time.Now().Format(time.RFC3339) //determinism:ok — CLI-level stamp, overridable with -stamp
	}

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chexbench:", err)
			exit(1)
		}
		defer f.Close()
		ro := experiments.Options{Scale: *scale, MaxInsts: *insts, MaxCycles: *maxCycles, Timeout: *timeout}
		if *benches != "" {
			ro.Benches = strings.Split(*benches, ",")
		}
		if err := experiments.Report(f, ro, *stamp); err != nil {
			fmt.Fprintln(os.Stderr, "chexbench:", err)
			exit(1)
		}
		fmt.Println("report written to", *report)
		return
	}

	o := experiments.Options{Scale: *scale, MaxInsts: *insts, MaxCycles: *maxCycles,
		Timeout: *timeout, ContextK: *ctxK}
	if *benches != "" {
		o.Benches = strings.Split(*benches, ",")
	}

	dump := func(name string, v any) {
		if *jsonDir == "" {
			return
		}
		if err := experiments.WriteJSON(*jsonDir, name, v); err != nil {
			fmt.Fprintf(os.Stderr, "chexbench: %v\n", err)
			exit(1)
		}
	}

	run := func(name string, f func() error) {
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "chexbench: %s: %v\n", name, err)
			exit(1)
		}
		fmt.Println()
	}

	want := func(f, t int) bool {
		if *all {
			return true
		}
		return (*fig != 0 && *fig == f) || (*table != 0 && *table == t)
	}
	if *contextBench != "" {
		run("Context-sensitivity sweep", func() error {
			rows, err := experiments.RunContextSweep(*contextBench, o)
			if err != nil {
				return err
			}
			dump("context", rows)
			fmt.Print(experiments.FormatContextSweep(*contextBench, rows))
			return nil
		})
		if !*all && *fig == 0 && *table == 0 && *sweepBench == "" {
			return
		}
	}
	if *sweepBench != "" {
		run("Structure-sizing sweeps", func() error {
			for _, k := range []experiments.SweepKind{
				experiments.SweepCapCache, experiments.SweepAliasCache, experiments.SweepPredictor,
			} {
				rows, err := experiments.RunSweep(*sweepBench, k, o)
				if err != nil {
					return err
				}
				dump(fmt.Sprintf("sweep-%d", int(k)), rows)
				fmt.Print(experiments.FormatSweep(*sweepBench, k, rows))
				fmt.Println()
			}
			return nil
		})
		if !*all && *fig == 0 && *table == 0 {
			return
		}
	}

	if *coverage {
		run("Tracker coverage", func() error {
			rows, err := experiments.RunCoverage(o)
			if err != nil {
				return err
			}
			dump("coverage", rows)
			fmt.Print(experiments.FormatCoverage(rows))
			return nil
		})
		if !*all && *fig == 0 && *table == 0 {
			return
		}
	}

	if *elideMode {
		run("Check elision", func() error {
			rows, err := experiments.RunElision(o)
			if err != nil {
				return err
			}
			dump("elision", rows)
			fmt.Print(experiments.FormatElision(rows))
			return nil
		})
		if !*all && *fig == 0 && *table == 0 {
			return
		}
	}

	if !*all && *fig == 0 && *table == 0 {
		flag.Usage()
		exit(2)
	}

	if want(1, 0) {
		run("Figure 1", func() error {
			fmt.Print(cvedata.Format())
			return nil
		})
	}
	if want(0, 1) {
		run("Table I", func() error {
			rs, err := experiments.RunTable1(o)
			if err != nil {
				return err
			}
			dump("table1", rs)
			fmt.Print(experiments.FormatTable1(rs))
			return nil
		})
	}
	if want(0, 2) {
		run("Table II", func() error {
			rs, err := experiments.RunTable2(o)
			if err != nil {
				return err
			}
			dump("table2", rs)
			fmt.Print(experiments.FormatTable2(rs))
			return nil
		})
	}
	if want(0, 3) {
		run("Table III", func() error {
			fmt.Print(experiments.FormatTable3())
			return nil
		})
	}
	if want(3, 0) {
		run("Figure 3", func() error {
			rs, err := experiments.RunFig3(o)
			if err != nil {
				return err
			}
			dump("fig3", rs)
			fmt.Print(experiments.FormatFig3(rs))
			return nil
		})
	}
	if want(0, 4) {
		run("Table IV", func() error {
			rs, err := experiments.RunTable4(o)
			if err != nil {
				return err
			}
			dump("table4", rs)
			fmt.Print(experiments.FormatTable4(rs))
			return nil
		})
	}
	if want(6, 0) {
		run("Figure 6", func() error {
			rs, err := experiments.RunFig6(o)
			if err != nil {
				return err
			}
			dump("fig6", rs)
			fmt.Print(experiments.FormatFig6(rs))
			fmt.Println()
			fmt.Print(experiments.ChartFig6(rs))
			return nil
		})
	}
	if want(7, 0) {
		run("Figure 7", func() error {
			rs, err := experiments.RunFig7(o)
			if err != nil {
				return err
			}
			dump("fig7", rs)
			fmt.Print(experiments.FormatFig7(rs))
			fmt.Println()
			fmt.Print(experiments.ChartFig7(rs))
			return nil
		})
	}
	if want(8, 0) {
		run("Figure 8", func() error {
			rs, err := experiments.RunFig8(o)
			if err != nil {
				return err
			}
			dump("fig8", rs)
			fmt.Print(experiments.FormatFig8(rs))
			fmt.Println()
			fmt.Print(experiments.ChartFig8(rs))
			return nil
		})
	}
	if *all || *table == 5 {
		run("Section VII-C (Watchdog comparison)", func() error {
			rs, err := experiments.RunWatchdog(o)
			if err != nil {
				return err
			}
			dump("watchdog", rs)
			fmt.Print(experiments.FormatWatchdog(rs))
			return nil
		})
	}
	if want(9, 0) {
		run("Figure 9", func() error {
			rs, err := experiments.RunFig9(o)
			if err != nil {
				return err
			}
			dump("fig9", rs)
			fmt.Print(experiments.FormatFig9(rs))
			return nil
		})
	}
}

// startProfiles begins CPU and/or heap profiling. The returned stop
// function is idempotent and must run before the process exits; exit()
// guarantees that on error paths.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintln(os.Stderr, "cpu profile written to", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "chexbench:", err)
				return
			}
			runtime.GC() // flush dead objects so the profile shows live + cumulative allocation sites
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "chexbench:", err)
			}
			f.Close()
			fmt.Fprintln(os.Stderr, "alloc profile written to", memPath)
		}
	}, nil
}
