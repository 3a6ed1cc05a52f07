// Command chexfuzz runs the lockstep differential-fuzzing harness: seeded
// random guest programs executed under the full protection-variant ×
// elision × μop-cache condition matrix, with every pipeline commit diffed
// against the reference emulator, capability-table/quarantine/tag-lattice
// invariants audited at configurable commit strides, and ground-truth
// labels checked on programs carrying injected violations.
//
// Every program derives from -seed and its global index, so a campaign is
// reproducible bit for bit; failures are minimized with a ddmin-style
// shrinker and persisted as content-addressed reproducers under the
// corpus directory.
//
// Usage:
//
//	chexfuzz -seed 1 -programs 10000            # bounded, cacheable sweep
//	chexfuzz -seed 1 -budget 30s -corpus ci     # CI gate: run until budget
//	chexfuzz -mutations 100 -steps 200 -v       # all-mutant stress, chatty
//
// Exit status: 0 on a clean sweep, 1 when the harness found a divergence,
// invariant violation, report mismatch, false positive, missed label, or
// crosscheck false negative (the report's failures carry shrunk genomes),
// 2 on usage or I/O errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"chex86/internal/lockstep"
)

func main() {
	seed := flag.Uint64("seed", 1, "sweep seed (equal seeds produce byte-identical reports)")
	programs := flag.Int("programs", 0, "bounded program count (0 with -budget = run until budget)")
	budget := flag.Duration("budget", 0, "wall-clock budget (with -programs 0: open-ended until exhausted)")
	steps := flag.Int("steps", 0, "generator steps per program (0 = 40)")
	bufs := flag.Int("bufs", 0, "heap buffers per program (0 = 4, max 4)")
	bufBytes := flag.Int64("buf-bytes", 0, "bytes per buffer (0 = 128)")
	funcs := flag.Int("funcs", 0, "call-tree depth for the context fold (0 = 3, max 8)")
	mutations := flag.Int("mutations", 0, "percent of programs carrying an injected labeled violation (0 = 40, -1 = none)")
	stride := flag.Uint64("stride", 0, "invariant-audit commit stride (0 = 64)")
	insts := flag.Uint64("insts", 0, "macro-op budget per program per condition (0 = 500k)")
	crosscheck := flag.Int("crosscheck-every", 0, "ptrflow-crosscheck every Nth safe program (0 = 16, -1 = off)")
	corpusDir := flag.String("corpus", "", "corpus directory for shrunk reproducers (empty = in-report only)")
	out := flag.String("o", "", "write the JSON sweep report to this file (default: stdout)")
	maxFailures := flag.Int("max-failures", 0, "stop after this many failing programs (0 = 8)")
	verbose := flag.Bool("v", false, "log per-failure progress to stderr")
	quiet := flag.Bool("q", false, "suppress the summary line on stderr")
	flag.Parse()

	spec := lockstep.SweepSpec{
		Seed:            *seed,
		Programs:        *programs,
		Steps:           *steps,
		Bufs:            *bufs,
		BufBytes:        *bufBytes,
		Funcs:           *funcs,
		MutationPct:     *mutations,
		Stride:          *stride,
		MaxInsts:        *insts,
		CrosscheckEvery: *crosscheck,
	}
	if *programs == 0 && *budget == 0 {
		spec.Programs = 200
	}

	opt := lockstep.SweepOptions{MaxFailures: *maxFailures}
	if *verbose {
		opt.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "chexfuzz: "+format+"\n", args...)
		}
	}
	if *corpusDir != "" {
		c, err := lockstep.OpenCorpus(*corpusDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chexfuzz:", err)
			os.Exit(2)
		}
		opt.Corpus = c
	}

	ctx := context.Background()
	if *budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *budget)
		defer cancel()
	}

	rep, err := lockstep.Sweep(ctx, spec, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chexfuzz:", err)
		os.Exit(2)
	}

	data := rep.JSON()
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "chexfuzz:", err)
		os.Exit(2)
	}

	if !*quiet {
		fmt.Fprintf(os.Stderr,
			"chexfuzz: %d programs (%d safe, %d mutated, %d detected), %d commits diffed, %d elided sites, %d crosschecks: %d divergences, %d invariant hits, %d report mismatches, %d false positives, %d missed labels, %d errors — %s\n",
			rep.Programs, rep.Safe, rep.Mutated, rep.Detected, rep.Commits, rep.ElidedSites,
			rep.Crosschecks, rep.Divergences, rep.InvariantViolations, rep.ReportMismatches,
			rep.FalsePositives, rep.LabelMisses, rep.Errors, passFail(!rep.Failed()))
	}
	if rep.Failed() {
		os.Exit(1)
	}
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
