// Command chexbench regenerates the tables and figures of the paper's
// evaluation (Section VII) on the simulated machine. It runs every mode
// it is given: the -context, -sweep, -coverage and -elide sections in
// that order, then the requested figures and tables.
//
// Usage:
//
//	chexbench -all -coverage       # everything (the full harness)
//	chexbench -fig 6               # one figure
//	chexbench -table 1             # one table
//	chexbench -fig 6 -scale 0.25   # quicker, scaled run
//	chexbench -benches mcf,lbm     # restrict the benchmark set
//	chexbench -fig 6 -cpuprofile cpu.pprof   # profile the host hot loop
//
// Exit status: 0 when every section ran, 1 when a section failed (a run
// error, a tripped deadline, a proven tracker false negative under
// -coverage, or a wrong-PID rule mismatch in Table I), 2 on usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"chex86/internal/cvedata"
	"chex86/internal/experiments"
)

func main() {
	os.Exit(chexbench(os.Args[1:], os.Stdout, os.Stderr))
}

// section is one titled block of output.
type section struct {
	name string
	run  func() error
}

// chexbench runs the command with args and returns its exit status.
func chexbench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chexbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure to regenerate (1, 3, 6, 7, 8, 9)")
	table := fs.Int("table", 0, "table to regenerate (1, 2, 3, 4; 5 = the §VII-C Watchdog comparison)")
	all := fs.Bool("all", false, "regenerate every table and figure")
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	insts := fs.Uint64("insts", 0, "macro-instruction budget per run (0 = completion)")
	timeout := fs.Duration("timeout", 0, "wall-clock deadline per simulation run (0 = none); expiry is a non-zero exit")
	maxCycles := fs.Uint64("max-cycles", 0, "simulated-cycle budget per run (0 = none); exceeding it reports a structured livelock error")
	benches := fs.String("benches", "", "comma-separated benchmark subset")
	jsonDir := fs.String("json", "", "also write results as JSON into this directory")
	contextBench := fs.String("context", "", "run the context-sensitivity sweep for this benchmark")
	sweepBench := fs.String("sweep", "", "run the structure-sizing sweeps (cap cache / alias cache / predictor) for this benchmark")
	coverage := fs.Bool("coverage", false, "run the static pointer-flow cross-check and report tracker coverage; a proven false negative is a non-zero exit")
	elideMode := fs.Bool("elide", false, "run proof-carrying check elision: analyze, verify proofs, replay with the elision map, report elision rate and speedup")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the run to this file")
	ctxK := fs.Int("ctxk", 0, "call-string depth for -elide proofs (0 = default k=2, -1 = context-insensitive)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	o := experiments.Options{Scale: *scale, MaxInsts: *insts, MaxCycles: *maxCycles,
		Timeout: *timeout, ContextK: *ctxK}
	if *benches != "" {
		o.Benches = strings.Split(*benches, ",")
	}

	// emit writes v as name.json under -json, then prints text.
	emit := func(name string, v any, text ...string) error {
		if *jsonDir != "" {
			if err := experiments.WriteJSON(*jsonDir, name, v); err != nil {
				return err
			}
		}
		for _, t := range text {
			fmt.Fprint(stdout, t)
		}
		return nil
	}

	var sections []section
	add := func(name string, run func() error) {
		sections = append(sections, section{name, run})
	}
	want := func(f, t int) bool {
		if *all {
			return true
		}
		return (*fig != 0 && *fig == f) || (*table != 0 && *table == t)
	}

	if *contextBench != "" {
		add("Context-sensitivity sweep", func() error {
			rows, err := experiments.RunContextSweep(*contextBench, o)
			if err != nil {
				return err
			}
			return emit("context", rows, experiments.FormatContextSweep(*contextBench, rows))
		})
	}
	if *sweepBench != "" {
		add("Structure-sizing sweeps", func() error {
			for _, k := range []experiments.SweepKind{
				experiments.SweepCapCache, experiments.SweepAliasCache, experiments.SweepPredictor,
			} {
				rows, err := experiments.RunSweep(*sweepBench, k, o)
				if err != nil {
					return err
				}
				if err := emit(fmt.Sprintf("sweep-%d", int(k)), rows, experiments.FormatSweep(*sweepBench, k, rows), "\n"); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if *coverage {
		add("Tracker coverage", func() error {
			rows, err := experiments.RunCoverage(o)
			if err != nil {
				return err
			}
			if err := emit("coverage", rows, experiments.FormatCoverage(rows)); err != nil {
				return err
			}
			fns := 0
			for _, r := range rows {
				fns += r.FalseNegatives
			}
			if fns > 0 {
				return fmt.Errorf("%d proven tracker false negative(s)", fns)
			}
			return nil
		})
	}
	if *elideMode {
		add("Check elision", func() error {
			rows, err := experiments.RunElision(o)
			if err != nil {
				return err
			}
			return emit("elision", rows, experiments.FormatElision(rows))
		})
	}

	if want(1, 0) {
		add("Figure 1", func() error {
			fmt.Fprint(stdout, cvedata.Format())
			return nil
		})
	}
	if want(0, 1) {
		add("Table I", func() error {
			rs, err := experiments.RunTable1(o)
			if err != nil {
				return err
			}
			if err := emit("table1", rs, experiments.FormatTable1(rs)); err != nil {
				return err
			}
			if n := experiments.WrongPIDs(rs); n > 0 {
				return fmt.Errorf("%d wrong-PID mismatch(es): the rule database is broken", n)
			}
			return nil
		})
	}
	if want(0, 2) {
		add("Table II", func() error {
			rs, err := experiments.RunTable2(o)
			if err != nil {
				return err
			}
			return emit("table2", rs, experiments.FormatTable2(rs))
		})
	}
	if want(0, 3) {
		add("Table III", func() error {
			fmt.Fprint(stdout, experiments.FormatTable3())
			return nil
		})
	}
	if want(3, 0) {
		add("Figure 3", func() error {
			rs, err := experiments.RunFig3(o)
			if err != nil {
				return err
			}
			return emit("fig3", rs, experiments.FormatFig3(rs))
		})
	}
	if want(0, 4) {
		add("Table IV", func() error {
			rs, err := experiments.RunTable4(o)
			if err != nil {
				return err
			}
			return emit("table4", rs, experiments.FormatTable4(rs))
		})
	}
	if want(6, 0) {
		add("Figure 6", func() error {
			rs, err := experiments.RunFig6(o)
			if err != nil {
				return err
			}
			return emit("fig6", rs, experiments.FormatFig6(rs), "\n", experiments.ChartFig6(rs))
		})
	}
	if want(7, 0) {
		add("Figure 7", func() error {
			rs, err := experiments.RunFig7(o)
			if err != nil {
				return err
			}
			return emit("fig7", rs, experiments.FormatFig7(rs), "\n", experiments.ChartFig7(rs))
		})
	}
	if want(8, 0) {
		add("Figure 8", func() error {
			rs, err := experiments.RunFig8(o)
			if err != nil {
				return err
			}
			return emit("fig8", rs, experiments.FormatFig8(rs), "\n", experiments.ChartFig8(rs))
		})
	}
	if *all || *table == 5 {
		add("Section VII-C (Watchdog comparison)", func() error {
			rs, err := experiments.RunWatchdog(o)
			if err != nil {
				return err
			}
			return emit("watchdog", rs, experiments.FormatWatchdog(rs))
		})
	}
	if want(9, 0) {
		add("Figure 9", func() error {
			rs, err := experiments.RunFig9(o)
			if err != nil {
				return err
			}
			return emit("fig9", rs, experiments.FormatFig9(rs))
		})
	}

	if len(sections) == 0 {
		fs.Usage()
		return 2
	}
	if *cpuprofile != "" || *memprofile != "" {
		stop, err := startProfiles(*cpuprofile, *memprofile, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "chexbench:", err)
			return 1
		}
		defer stop()
	}
	for _, s := range sections {
		fmt.Fprintf(stdout, "==== %s ====\n", s.name)
		if err := s.run(); err != nil {
			fmt.Fprintf(stderr, "chexbench: %s: %v\n", s.name, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// startProfiles begins CPU and/or heap profiling. The returned stop
// function writes the profiles and must run before the process exits,
// also when a section fails, so a failed run still leaves a usable
// profile behind.
func startProfiles(cpuPath, memPath string, stderr io.Writer) (func(), error) {
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
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			fmt.Fprintln(stderr, "cpu profile written to", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(stderr, "chexbench:", err)
				return
			}
			runtime.GC() // flush dead objects so the profile shows live + cumulative allocation sites
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(stderr, "chexbench:", err)
			}
			f.Close()
			fmt.Fprintln(stderr, "alloc profile written to", memPath)
		}
	}, nil
}
