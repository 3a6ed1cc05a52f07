package experiments

import "testing"

// TestCatalogTrackerCoverage pins the tracker's coverage on the whole
// catalog at the CI cross-check's settings: the tracker tags every
// dereference the static analysis proves must carry a pointer, with no
// proven and no triaged false negatives. The cross-check's exit rule
// counts only proven false negatives, so a tracker whose misses all
// triage as init-order passes it; it does not pass this test.
func TestCatalogTrackerCoverage(t *testing.T) {
	rows, err := RunCoverage(Options{Scale: 0.25, MaxInsts: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("coverage covers %d workloads, want 14", len(rows))
	}
	for _, r := range rows {
		if r.Coverage != 1 || r.FalseNegatives != 0 || r.TriagedFalseNegatives != 0 {
			t.Errorf("%s: coverage %.4f with %d proven and %d triaged false negatives; want 1, 0, 0",
				r.Bench, r.Coverage, r.FalseNegatives, r.TriagedFalseNegatives)
		}
	}
}
