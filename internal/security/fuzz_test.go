package security

import (
	"fmt"
	"testing"

	"chex86/internal/decode"
	"chex86/internal/lockstep"
	"chex86/internal/lockstep/progen"
)

// The randomized differential property of Section VI: CHEx86 is transparent
// to memory-safe programs (no false positives, whatever the pointer flow)
// and flags any single injected mutation — spatial (out-of-bounds) or
// temporal (use-after-free, double free, dangling spill) — with the right
// violation class.
//
// The program generator lives in internal/lockstep/progen (it also feeds
// the lockstep differential-fuzzing harness): seeded random walks of
// pointer copies, bounded arithmetic, spills, reloads, in-bounds word/byte
// accesses, alloc/free churn, and call trees, with an optional labeled
// violation.

// fuzzConds is the one-cell matrix the property runs under: the
// prediction variant, every commit diffed against the reference emulator.
var fuzzConds = []lockstep.Condition{{Variant: decode.VariantMicrocodePrediction}}

// TestFuzzNoFalsePositives: 50 random memory-safe pointer-flow programs,
// zero violations allowed.
func TestFuzzNoFalsePositives(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := progen.Generate(seed, progen.Options{})
			if pr := lockstep.RunGenome(g, fuzzConds, lockstep.RunOptions{}); pr.Failure != nil {
				t.Fatalf("safe random program: %v", pr.Failure)
			}
		})
	}
}

// TestFuzzDetectsMutation: the same generator with one injected mutation
// must always be flagged, with the mutation's violation class.
func TestFuzzDetectsMutation(t *testing.T) {
	for _, mut := range progen.Mutations() {
		mut := mut
		t.Run(string(mut), func(t *testing.T) {
			for seed := uint64(0); seed < 40; seed++ {
				g := progen.Generate(seed, progen.Options{Mutation: mut})
				if pr := lockstep.RunGenome(g, fuzzConds, lockstep.RunOptions{}); pr.Failure != nil {
					t.Fatalf("seed %d: %s mutation: %v", seed, mut, pr.Failure)
				}
			}
		})
	}
}
