// Command chexlint statically analyzes the pointer flow of guest
// workloads and, with -crosscheck, replays them through the simulated
// pipeline to diff the speculative pointer tracker's runtime tag stream
// against the static verdicts.
//
// The static analyzer (internal/ptrflow) abstractly interprets the
// tracker's Table-I rule database over a control-flow graph of the
// decoded program, producing a per-dereference verdict: statically
// pointer, statically not-pointer, or unknown. The cross-check proves
// tracker false negatives (a dereference the analysis shows must carry a
// pointer, executed untagged) and over-tagging, and measures tracker
// coverage. Proven, untriaged false negatives make the exit status
// non-zero, so the tool doubles as a CI gate for tracker-rule
// regressions.
//
// With -elide, the analyzer additionally emits per-dereference safety
// proofs, the independent checker (internal/elide) verifies them, and
// the tool prints the resulting proof table: which capability checks are
// provably elidable, with bounds and justification chains.
//
// Usage:
//
//	chexlint -workloads all
//	chexlint -crosscheck -workloads mcf,leela -o report.json
//	chexlint -elide -workloads freqmine
//	chexlint -elide -json -o proofs.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"chex86/internal/decode"
	"chex86/internal/elide"
	"chex86/internal/ptrflow"
	"chex86/internal/workload"
)

func main() {
	workloads := flag.String("workloads", "all", "comma-separated benchmark names, or \"all\"")
	crosscheck := flag.Bool("crosscheck", false, "replay workloads dynamically and diff tracker tags against static verdicts")
	elideMode := flag.Bool("elide", false, "verify capability-check elision proofs and print the proof table")
	jsonOut := flag.Bool("json", false, "emit the -elide proof reports as byte-stable JSON (crosscheck reports are always JSON)")
	ctxK := flag.Int("ctxk", 0, "call-string depth for -elide proofs (0 = default k=2, -1 = context-insensitive)")
	contexts := flag.Int("contexts", 0, "cap the per-context verdict rows printed per site in -elide output (0 = all)")
	variantFlag := flag.String("variant", "prediction", "protection variant for the dynamic replay")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	insts := flag.Uint64("insts", 0, "instruction budget for the dynamic replay (0 = run to completion)")
	maxCycles := flag.Uint64("max-cycles", 20_000_000, "watchdog cycle budget for the dynamic replay")
	timeout := flag.Duration("timeout", 5*time.Minute, "wall-clock budget per dynamic replay")
	out := flag.String("o", "", "write the crosscheck JSON report to this file (default: stdout when -crosscheck)")
	quiet := flag.Bool("q", false, "suppress per-workload summaries on stderr")
	flag.Parse()

	profiles, err := selectProfiles(*workloads)
	if err != nil {
		fail(err)
	}
	variant, ok := decode.ParseVariant(*variantFlag)
	if !ok {
		fail(fmt.Errorf("unknown variant %q", *variantFlag))
	}

	if *elideMode {
		if err := runElide(profiles, *scale, *ctxK, *contexts, *jsonOut, *out, *quiet); err != nil {
			fail(err)
		}
		return
	}

	if !*crosscheck {
		for _, p := range profiles {
			if err := staticOnly(p, *scale); err != nil {
				fail(err)
			}
		}
		return
	}

	var reports []*ptrflow.Report
	falseNegatives := 0
	for _, p := range profiles {
		prog, err := p.Build(*scale)
		if err != nil {
			fail(fmt.Errorf("%s: %w", p.Name, err))
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		rep, err := ptrflow.Crosscheck(ctx, prog, ptrflow.CheckOptions{
			Harts:     harts(p),
			Variant:   variant,
			MaxInsts:  *insts,
			MaxCycles: *maxCycles,
		})
		cancel()
		if err != nil {
			fail(fmt.Errorf("%s: %w", p.Name, err))
		}
		rep.Workload = p.Name
		reports = append(reports, rep)
		falseNegatives += rep.FalseNegatives
		if !*quiet {
			fmt.Fprint(os.Stderr, rep.Format())
		}
	}

	data, err := json.MarshalIndent(struct {
		Pass    bool              `json:"pass"`
		Reports []*ptrflow.Report `json:"reports"`
	}{falseNegatives == 0, reports}, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	if falseNegatives > 0 {
		fmt.Fprintf(os.Stderr, "chexlint: %d proven tracker false negative(s)\n", falseNegatives)
		os.Exit(1)
	}
}

// runElide analyzes each workload, verifies its proof bundle with the
// independent checker, and renders the proof table (or, with jsonOut,
// a byte-stable JSON report including the per-context verdict table).
func runElide(profiles []*workload.Profile, scale float64, ctxK, contexts int, jsonOut bool, outPath string, quiet bool) error {
	type ctxVerdict struct {
		Addr     uint64 `json:"addr"`
		MacroIdx uint8  `json:"macroIdx"`
		Ctx      string `json:"ctx"`
		Verdict  string `json:"verdict"`
		Proof    string `json:"proof"` // elide | keep | none
	}
	type elideReport struct {
		Workload string `json:"workload"`
		*elide.Report
		Contexts []ctxVerdict `json:"contexts,omitempty"`
	}
	var reports []elideReport
	for _, p := range profiles {
		prog, err := p.Build(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		an, err := ptrflow.Analyze(prog, ptrflow.Options{Harts: harts(p), ContextK: ctxK})
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		rep := elide.FromAnalysis(prog, an, elide.Options{Harts: harts(p), ContextK: ctxK})

		// Join checker decisions onto the analyzer's per-context
		// verdicts: proof status is the decision at the exact context,
		// falling back to a context-free ("any") elision that already
		// covers every context of the site.
		type decKey struct {
			addr uint64
			idx  uint8
			ctx  string
		}
		status := make(map[decKey]string, len(rep.Decisions))
		for i := range rep.Decisions {
			d := &rep.Decisions[i]
			c := d.Ctx
			if c == "" {
				c = "any"
			}
			status[decKey{d.Addr, d.MacroIdx, c}] = d.Status
		}
		var ctxRows []ctxVerdict
		for _, s := range an.SortedSites() {
			printed := 0
			for _, sc := range s.SortedCtxs() {
				if contexts > 0 && printed >= contexts {
					break
				}
				name := sc.Ctx.String()
				proof, ok := status[decKey{s.Addr, s.MacroIdx, name}]
				if !ok {
					if status[decKey{s.Addr, s.MacroIdx, "any"}] == "elide" {
						proof = "elide"
					} else {
						proof = "none"
					}
				}
				ctxRows = append(ctxRows, ctxVerdict{
					Addr:     s.Addr,
					MacroIdx: s.MacroIdx,
					Ctx:      name,
					Verdict:  sc.Verdict.String(),
					Proof:    proof,
				})
				printed++
			}
		}
		reports = append(reports, elideReport{Workload: p.Name, Report: rep, Contexts: ctxRows})
		if !jsonOut && !quiet {
			fmt.Printf("%s:\n%s", p.Name, rep.Format())
		}
	}
	if !jsonOut {
		return nil
	}
	data, err := json.MarshalIndent(struct {
		Reports []elideReport `json:"reports"`
	}{reports}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" {
		os.Stdout.Write(data)
		return nil
	}
	return os.WriteFile(outPath, data, 0o644)
}

// staticOnly analyzes one workload without a dynamic replay and prints a
// summary listing.
func staticOnly(p *workload.Profile, scale float64) error {
	prog, err := p.Build(scale)
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name, err)
	}
	an, err := ptrflow.Analyze(prog, ptrflow.Options{Harts: harts(p)})
	if err != nil {
		return fmt.Errorf("%s: %w", p.Name, err)
	}
	fmt.Printf("%s:\n%s", p.Name, an.Format())
	return nil
}

func selectProfiles(names string) ([]*workload.Profile, error) {
	if names == "" || names == "all" {
		return workload.Catalog(), nil
	}
	var out []*workload.Profile
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		p := workload.ByName(n)
		if p == nil {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		out = append(out, p)
	}
	return out, nil
}

func harts(p *workload.Profile) int {
	if p.Threads > 0 {
		return p.Threads
	}
	return 1
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "chexlint:", err)
	os.Exit(2)
}
