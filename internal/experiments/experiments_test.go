package experiments

import (
	"fmt"
	"strings"
	"testing"

	"chex86/internal/decode"
	"chex86/internal/patterns"
	"chex86/internal/tracker"
)

func quickOpts() Options {
	return Options{Scale: 0.25, MaxInsts: 250_000}
}

// TestFig6Shape verifies the paper's headline orderings on a scaled run:
// ASan is the slowest protected configuration everywhere, CHEx86's
// prediction-driven variant beats binary translation on average, and the
// insecure baseline is fastest.
func TestFig6Shape(t *testing.T) {
	rows, err := RunFig6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("expected 14 benchmarks, got %d", len(rows))
	}
	fmt.Println(FormatFig6(rows))
	for i := range rows {
		r := &rows[i]
		pred := r.Norm(decode.VariantMicrocodePrediction)
		asan := r.Norm(decode.VariantASan)
		if pred <= 0 || asan <= 0 {
			t.Fatalf("%s: missing results", r.Bench)
		}
		if asan > pred*1.02 {
			t.Errorf("%s: ASan (%.3f) should not beat prediction-driven (%.3f)", r.Bench, asan, pred)
		}
		if r.Norm(decode.VariantInsecure) != 1.0 {
			t.Errorf("%s: baseline must normalize to 1.0", r.Bench)
		}
		if exp := r.NormExpansion(decode.VariantASan); exp < 1.5 {
			t.Errorf("%s: ASan uop expansion %.2f should be well above baseline", r.Bench, exp)
		}
		if exp := r.NormExpansion(decode.VariantMicrocodePrediction); exp < 1.0 || exp > 1.6 {
			t.Errorf("%s: CHEx86 uop expansion %.2f out of expected band", r.Bench, exp)
		}
	}
	s := Summarize(rows)
	if s.SpeedupVsASanSPEC < 1.2 {
		t.Errorf("CHEx86 should clearly outperform ASan on SPEC; got %.2fx", s.SpeedupVsASanSPEC)
	}
	if s.BTSpeedupPct < 0 {
		t.Errorf("microcode variant should not lose to binary translation on average; got %+.1f%%", s.BTSpeedupPct)
	}
}

func TestFig7Shape(t *testing.T) {
	o := quickOpts()
	o.Benches = []string{"perlbench", "mcf", "lbm", "xalancbmk"}
	rows, err := RunFig7(o)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(FormatFig7(rows))
	for _, r := range rows {
		if r.CapMiss128 > r.CapMiss64*1.1+0.01 {
			t.Errorf("%s: 128-entry capability cache should not miss more than 64-entry (%.3f vs %.3f)",
				r.Bench, r.CapMiss128, r.CapMiss64)
		}
		if r.AliasMiss512 > r.AliasMiss256*1.1+0.01 {
			t.Errorf("%s: 512-entry alias cache should not miss more than 256-entry", r.Bench)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	o := quickOpts()
	o.Benches = []string{"perlbench", "lbm", "canneal"}
	rows, err := RunFig8(o)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(FormatFig8(rows))
	for _, r := range rows {
		if r.Mispred2048 > r.Mispred1024*1.15+0.01 {
			t.Errorf("%s: larger predictor should not mispredict more", r.Bench)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	o := quickOpts()
	o.Benches = []string{"perlbench", "xalancbmk", "lbm"}
	rows, err := RunFig9(o)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(FormatFig9(rows))
	for _, r := range rows {
		if r.CHExRSS < r.BaseRSS {
			t.Errorf("%s: CHEx86 RSS below baseline", r.Bench)
		}
		if r.CHExRSS > r.ASanRSS*3/2 {
			t.Errorf("%s: CHEx86 should not allocate much more shadow memory than ASan (%d vs %d)",
				r.Bench, r.CHExRSS, r.ASanRSS)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	rows, err := RunFig3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(FormatFig3(rows))
	for _, r := range rows {
		if r.Stats.TotalAllocs == 0 {
			t.Errorf("%s: no allocations", r.Bench)
		}
		if r.Stats.MaxLive > r.Stats.TotalAllocs {
			t.Errorf("%s: max live exceeds total", r.Bench)
		}
		// Churn within an interval lets distinct-touched exceed peak-live
		// slightly; it must stay the smallest of the three metrics overall.
		if r.Stats.AvgInUse > 2*float64(r.Stats.MaxLive) {
			t.Errorf("%s: in-use (%.0f) far exceeds live (%d)", r.Bench, r.Stats.AvgInUse, r.Stats.MaxLive)
		}
	}
}

func TestTable1RuleValidation(t *testing.T) {
	o := quickOpts()
	o.Benches = []string{"perlbench", "mcf", "canneal"}
	results, err := RunTable1(o)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(FormatTable1(results))
	for _, r := range results {
		if r.Validations == 0 {
			t.Errorf("%s: checker validated nothing", r.Bench)
		}
		if r.Validations > 0 && float64(r.Mismatches)/float64(r.Validations) > 0.01 {
			t.Errorf("%s: rule mismatch rate too high: %d/%d", r.Bench, r.Mismatches, r.Validations)
		}
	}
}

// TestTable1MismatchLines: each logged mismatch gets a line under its
// benchmark's row, only a tagged value with the wrong PID is printed as a
// rule bug, and WrongPIDs reads the checker's count, which runs past the
// log.
func TestTable1MismatchLines(t *testing.T) {
	rs := []Table1Result{{Bench: "mcf", Validations: 10, Mismatches: 3, WrongPIDs: 2, Mismatch: []tracker.Mismatch{
		{RIP: 0x400010, Inst: "mov", Tracked: 3, Actual: 4},
		{RIP: 0x400020, Inst: "xor", Tracked: 0, Actual: 5},
	}}}
	out := FormatTable1(rs)
	for _, want := range []string{"  WRONG-PID (rule bug): rip=0x400010", "  extension candidate:  rip=0x400020"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I lacks %q:\n%s", want, out)
		}
	}
	if n := WrongPIDs(rs); n != 2 {
		t.Errorf("WrongPIDs = %d, want 2", n)
	}
}

func TestTable2Patterns(t *testing.T) {
	o := quickOpts()
	o.Benches = []string{"perlbench", "lbm", "canneal"}
	results, err := RunTable2(o)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(FormatTable2(results))
	// perlbench must exhibit Batch+Stride behavior (the paper singles it
	// out); lbm must be dominated by Constant.
	for _, r := range results {
		switch r.Bench {
		case "perlbench":
			if r.Summary[patterns.BatchStride] == 0 {
				t.Error("perlbench should show Batch + Stride reload PCs")
			}
		case "lbm":
			if r.Summary[patterns.Constant] == 0 {
				t.Error("lbm should show Constant reload PCs")
			}
		}
	}
}

func TestTable4(t *testing.T) {
	o := quickOpts()
	o.Benches = []string{"perlbench", "lbm"}
	rows, err := RunTable4(o)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(FormatTable4(rows))
	last := rows[len(rows)-1]
	if last.Proposal != "CHEx86" || !last.IsMeasured {
		t.Fatal("CHEx86 measured row missing")
	}
	if !last.Temporal || !last.Spatial || last.BinCompat != "Yes" {
		t.Error("CHEx86 row should claim temporal+spatial safety with binary compatibility")
	}
}
