package security

import (
	"testing"

	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/lockstep"
)

// TestAllSuitesDetected reproduces the paper's headline security result:
// CHEx86 thwarts every exploit from the RIPE-style sweep, the ASan-style
// unit suite, and the How2Heap-style collection, with the expected
// violation class, while the benign and false-positive probes behave as
// Section VII-B describes.
func TestAllSuitesDetected(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Suite+"/"+e.Name, func(t *testing.T) {
			out := Run(e, decode.VariantMicrocodePrediction)
			if out.Err != nil && out.Violation == nil {
				t.Fatalf("run error: %v", out.Err)
			}
			if !out.Correct() {
				t.Fatalf("%s", out)
			}
		})
	}
}

// TestSuiteSizes pins the suite composition: RIPE's sweep, the ASan unit
// cases, and the 18 How2Heap techniques.
func TestSuiteSizes(t *testing.T) {
	counts := map[string]int{}
	for _, e := range All() {
		counts[e.Suite]++
	}
	if counts[SuiteHow2Heap] != 18 {
		t.Errorf("How2Heap should carry 18 exploits, got %d", counts[SuiteHow2Heap])
	}
	if counts[SuiteRIPE] < 50 {
		t.Errorf("RIPE sweep too small: %d", counts[SuiteRIPE])
	}
	if counts[SuiteASan] < 12 {
		t.Errorf("ASan suite too small: %d", counts[SuiteASan])
	}
}

// TestSuitesLockstep runs every exploit and benign probe through the
// lockstep harness's ten-cell matrix (variant × elision × μop cache),
// which diffs each commit against the reference emulator. Within a
// variant, elision and the μop translation cache must leave the violation
// report unchanged, field for field; the insecure cells must report
// nothing; and every protected cell must report the case's expected class
// first. The elision cells must verify at least one proof, or they
// checked nothing.
func TestSuitesLockstep(t *testing.T) {
	proofs, programs := 0, 0
	for _, e := range All() {
		prog, err := e.Build()
		if err != nil {
			t.Fatalf("%s/%s: build: %v", e.Suite, e.Name, err)
		}
		pr := lockstep.RunProgram(prog, e.Expect, lockstep.DefaultConditions(), lockstep.RunOptions{})
		if pr.Failure != nil {
			t.Errorf("%s/%s: %v", e.Suite, e.Name, pr.Failure)
		}
		proofs += pr.Elided
		if pr.Elided > 0 {
			programs++
		}
	}
	if proofs == 0 {
		t.Fatal("the elision cells verified no proof on any security program")
	}
	t.Logf("%d proofs verified across the elision cells, on %d programs", proofs, programs)
}

// TestAllVariantsDetect verifies every protected CHEx86 variant catches a
// representative exploit from each class.
func TestAllVariantsDetect(t *testing.T) {
	reps := map[string]bool{
		"heap-buffer-overflow-write": true,
		"heap-use-after-free-read":   true,
		"double-free":                true,
		"tcache-poisoning":           true,
	}
	variants := []decode.Variant{
		decode.VariantHardwareOnly,
		decode.VariantBinaryTranslation,
		decode.VariantMicrocodeAlwaysOn,
		decode.VariantMicrocodePrediction,
	}
	for _, e := range All() {
		if !reps[e.Name] {
			continue
		}
		for _, v := range variants {
			out := Run(e, v)
			if !out.Correct() {
				t.Errorf("variant %v: %s", v, out)
			}
		}
	}
}

// TestSummarize checks the aggregate bookkeeping.
func TestSummarize(t *testing.T) {
	outs := RunSuite(SuiteHow2Heap)
	s := Summarize(outs)
	if s.Total != 18 || s.Correct != 18 {
		t.Fatalf("How2Heap summary: %d/%d correct; failures: %v", s.Correct, s.Total, s.Failures)
	}
	if s.ByClass[core.VDoubleFree] == 0 || s.ByClass[core.VUseAfterFree] == 0 || s.ByClass[core.VOutOfBounds] == 0 {
		t.Errorf("expected a mix of violation classes, got %v", s.ByClass)
	}
}
