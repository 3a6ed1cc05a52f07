// Command chexperf is the host-throughput regression gate: it measures
// Kinst/s and allocs/instruction for a set of (workload, variant) pairs,
// normalizes by a host-speed calibration score, and compares against a
// committed baseline with a tolerance band. CI fails the build when
// normalized throughput regresses beyond the tolerance or allocations
// per instruction increase.
//
// Usage:
//
//	chexperf -write-baseline                # regenerate bench_baseline.json
//	chexperf                                # gate against bench_baseline.json
//	chexperf -baseline b.json -o BENCH.json # explicit paths (CI)
//	chexperf -tolerance 0.25 -runs 5        # wider band, more samples
//
// Measurement noise is handled two ways: each pair is measured -runs
// times and the fastest sample kept (minimum wall time is the standard
// low-noise estimator for benchmark gating), and throughput is divided by
// the calibration score measured in the same process, so a slower CI
// runner does not read as a regression.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"chex86/internal/decode"
	"chex86/internal/hostperf"
	"chex86/internal/workload"
)

func main() {
	baselinePath := flag.String("baseline", "bench_baseline.json", "committed baseline report to gate against")
	outPath := flag.String("o", "", "write the measured report to this file (CI uploads it as an artifact)")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional drop in host-normalized Kinst/s")
	writeBaseline := flag.Bool("write-baseline", false, "measure and overwrite -baseline instead of gating")
	runs := flag.Int("runs", 3, "samples per (workload, variant) pair; the fastest is kept")
	benches := flag.String("benches", "mcf,gcc,lbm,xalancbmk", "comma-separated workloads to measure")
	variants := flag.String("variants", "baseline,always-on,prediction", "comma-separated protection variants to measure")
	scale := flag.Float64("scale", 0.25, "workload scale factor")
	insts := flag.Uint64("insts", 200_000, "instructions to retire per measurement after warmup")
	allowNew := flag.Bool("allow-new", false, "permit measured benchmarks that are missing from the baseline (new benchmarks landing before their baseline is regenerated)")
	flag.Parse()

	clock := func() int64 { return time.Now().UnixNano() } //determinism:ok — CLI wall-time probe

	rep, err := measureAll(clock, *benches, *variants, *scale, *insts, *runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chexperf:", err)
		os.Exit(1)
	}
	fmt.Print(hostperf.Format(rep))

	data, err := hostperf.MarshalReport(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chexperf:", err)
		os.Exit(1)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "chexperf:", err)
			os.Exit(1)
		}
		fmt.Println("report written to", *outPath)
	}

	if *writeBaseline {
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "chexperf:", err)
			os.Exit(1)
		}
		fmt.Println("baseline written to", *baselinePath)
		return
	}

	baseData, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chexperf: %v (run with -write-baseline to create it)\n", err)
		os.Exit(1)
	}
	baseline, err := hostperf.UnmarshalReport(baseData)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chexperf: %s: %v\n", *baselinePath, err)
		os.Exit(1)
	}

	problems := hostperf.Compare(baseline, rep, *tolerance, *allowNew)
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "chexperf: %d regression(s) against %s:\n", len(problems), *baselinePath)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, " ", p)
		}
		os.Exit(1)
	}
	fmt.Printf("gate passed: %d samples within %.0f%% of %s\n", len(rep.Samples), *tolerance*100, *baselinePath)
}

// measureAll runs the benchmark matrix, keeping the fastest of -runs
// samples per pair.
func measureAll(clock hostperf.Clock, benches, variants string, scale float64, insts uint64, runs int) (*hostperf.Report, error) {
	if runs < 1 {
		runs = 1
	}
	var vs []decode.Variant
	for _, name := range strings.Split(variants, ",") {
		v, ok := decode.ParseVariant(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown variant %q", name)
		}
		vs = append(vs, v)
	}
	rep := &hostperf.Report{HostScore: hostperf.Calibrate(clock)}
	for _, name := range strings.Split(benches, ",") {
		p := workload.ByName(strings.TrimSpace(name))
		if p == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		for _, v := range vs {
			var best hostperf.Sample
			for r := 0; r < runs; r++ {
				s, err := hostperf.Measure(clock, p, v, hostperf.MeasureOpts{Scale: scale, MaxInsts: insts})
				if err != nil {
					return nil, err
				}
				if r == 0 || s.WallNS < best.WallNS {
					best = s
				}
			}
			rep.Samples = append(rep.Samples, best)
		}
	}
	return rep, nil
}
