// Command chexsec runs the security evaluation of Section VII-A: the
// RIPE-style sweep, the ASan-test-style suite, the How2Heap-style exploit
// collection, and the Section VII-B false-positive probes.
//
// Usage:
//
//	chexsec                       # all suites, prediction-driven variant
//	chexsec -suite How2Heap -v    # one suite, per-exploit output
//	chexsec -variant baseline     # demonstrate the unprotected baseline
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"chex86/internal/decode"
	"chex86/internal/security"
)

func main() {
	suite := flag.String("suite", "", "restrict to one suite: RIPE | 'ASan tests' | How2Heap | 'False positives'")
	variant := flag.String("variant", "prediction", "protection variant: baseline|hardware|bintrans|always-on|prediction|asan|watchdog")
	verbose := flag.Bool("v", false, "print every exploit outcome")
	jsonPath := flag.String("json", "", "write per-exploit outcomes as JSON to this file")
	flag.Parse()

	v, ok := decode.ParseVariant(*variant)
	if !ok {
		fmt.Fprintf(os.Stderr, "chexsec: unknown variant %q\n", *variant)
		os.Exit(2)
	}

	bySuite := map[string][]*security.Outcome{}
	order := []string{}
	var outs []*security.Outcome
	for _, e := range security.All() {
		if *suite != "" && !strings.EqualFold(e.Suite, *suite) {
			continue
		}
		if _, seen := bySuite[e.Suite]; !seen {
			order = append(order, e.Suite)
		}
		out := security.Run(e, v)
		bySuite[e.Suite] = append(bySuite[e.Suite], out)
		outs = append(outs, out)
		if *verbose {
			fmt.Println(out)
		}
	}

	if *jsonPath != "" {
		data, err := security.JSON(outs)
		if err == nil {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "chexsec:", err)
			os.Exit(1)
		}
	}

	exit := 0
	fmt.Printf("\nSecurity evaluation under %q:\n", v)
	for _, s := range order {
		sum := security.Summarize(bySuite[s])
		fmt.Printf("  %-16s %3d/%3d as expected", s, sum.Correct, sum.Total)
		if len(sum.ByClass) > 0 {
			fmt.Print("  [")
			for i, k := range sum.Classes() {
				if i > 0 {
					fmt.Print(", ")
				}
				fmt.Printf("%s: %d", k, sum.ByClass[k])
			}
			fmt.Print("]")
		}
		fmt.Println()
		if v == decode.VariantMicrocodePrediction && sum.Correct != sum.Total {
			exit = 1
			for _, f := range sum.Failures {
				fmt.Printf("    FAILURE %s\n", f)
			}
		}
	}
	os.Exit(exit)
}
