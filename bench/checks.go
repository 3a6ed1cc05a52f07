package bench

import (
	"bytes"
	"fmt"
	"sort"

	"chex86/internal/pipeline"
)

// tally counts operations and the ones that failed a correctness check.
// Each operation fails at most once, with its first failing check.
type tally struct {
	attempted, failed int
	failures          []string
}

// op records one operation with the outcome of its checks.
func (t *tally) op(what string, errs ...error) {
	t.attempted++
	for _, err := range errs {
		if err != nil {
			t.failed++
			t.failures = append(t.failures, what+": "+err.Error())
			return
		}
	}
}

// merge adds o's operations to t.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.failures = append(t.failures, o.failures...)
}

// checkRun fails a simulation that returned an error or reported a
// violation: every catalog program is benign, so a violation is a false
// positive.
func checkRun(res *pipeline.Result, err error) error {
	if err != nil {
		return fmt.Errorf("simulation failed: %w", err)
	}
	if res == nil {
		return fmt.Errorf("simulation returned no result")
	}
	if n := len(res.Violations); n > 0 {
		return fmt.Errorf("%d violation(s) on a benign program, first: %v", n, res.Violations[0])
	}
	return nil
}

// checkSameInsts fails when two variants of one program committed a
// different number of macro-ops: protection must not change what runs.
func checkSameInsts(insecure, protected uint64) error {
	if insecure != protected {
		return fmt.Errorf("insecure committed %d macro-ops, prediction %d", insecure, protected)
	}
	return nil
}

// checkEmuCount fails when the isolated emulator pass executed a different
// number of macro-ops than the simulation's own emulator did.
func checkEmuCount(emuInsts, simInsts uint64) error {
	if emuInsts != simInsts {
		return fmt.Errorf("isolated emulator executed %d macro-ops, the simulation %d", emuInsts, simInsts)
	}
	return nil
}

// checkElision fails an elision run whose proof bundle the checker did not
// verify, or whose checks do not add up: every check the plain prediction
// run performs must either run or be elided under the map.
func checkElision(verified bool, off, on *pipeline.Result) error {
	if !verified {
		return fmt.Errorf("elision proof bundle not verified")
	}
	if off.ChecksRun != on.ChecksRun+on.ChecksElided {
		return fmt.Errorf("checks without elision %d != run %d + elided %d with it",
			off.ChecksRun, on.ChecksRun, on.ChecksElided)
	}
	return nil
}

// checkRepeat fails when a repeated deterministic computation (the same
// cell simulated again, or a cached campaign result served again) gives
// different bytes than the first time.
func checkRepeat(first, again []byte) error {
	if !bytes.Equal(first, again) {
		return fmt.Errorf("repeat differs from the first result (%d vs %d bytes)", len(first), len(again))
	}
	return nil
}

// checkSimMetricsEqual fails when runs of one workload disagree on any
// simulated (sim*) metric. These are exact and come from the committed
// profiles (on fabric-mix, from cells whose simulated work no seed
// changes), so they must repeat bit for bit across runs and seeds, traced
// or not.
func checkSimMetricsEqual(runs []*Record) error {
	first := map[string]*Record{}
	var problems []string
	for _, r := range runs {
		f, ok := first[r.Workload]
		if !ok {
			first[r.Workload] = r
			continue
		}
		for _, name := range sortedKeys(r.Metrics) {
			fv, ok := f.Metrics[name]
			if !isSimMetric(name) || !ok {
				continue
			}
			if fv.Value != r.Metrics[name].Value {
				problems = append(problems, fmt.Sprintf("%s: %s %v (seed %d) != %v (seed %d)",
					r.Workload, name, fv.Value, f.Seed, r.Metrics[name].Value, r.Seed))
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("simulated metrics differ across runs: %v", problems)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
