package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Def `json:"end_to_end"`
	PerLayer []Def `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metrics the
// code emits identical: names, units, directions, bounds and order.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if !reflect.DeepEqual(bf.EndToEnd, EndToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from EndToEnd:\n file %v\n code %v", bf.EndToEnd, EndToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, PerLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from PerLayer:\n file %v\n code %v", bf.PerLayer, PerLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, Workloads) {
		t.Errorf("workloads %v, code runs %v", names, Workloads)
	}
	var setup float64
	for _, d := range EndToEnd {
		switch {
		case isSimMetric(d.Name) && d.Bound != 0:
			t.Errorf("%s: exact simulated metric with bound %v, want 0", d.Name, d.Bound)
		case !isSimMetric(d.Name) && (d.Bound <= 0 || d.Bound > 0.10):
			t.Errorf("%s: bound %v outside (0, 0.10]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range EndToEnd {
		if d.Bound > setup {
			t.Errorf("%s: bound %v above setup_s's %v", d.Name, d.Bound, setup)
		}
	}
}

// tinyRun runs one workload at smoke-test size.
func tinyRun(t *testing.T, w string, seed uint64, trace bool) (*Record, []Span) {
	t.Helper()
	secs := 0.05
	if w == "fabric-mix" {
		secs = 0.5
	}
	rec, spans, err := Run(Options{Workload: w, Seed: seed, Seconds: secs, Trace: trace,
		WorkDir: t.TempDir(), Clock: newTestClock(), Scale: 0.05})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", w, seed, trace, err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
		t.Fatalf("%s seed %d trace %v: %d of %d operations failed: %v", w, seed, trace, rec.Failed, rec.Attempted, rec.Failures)
	}
	return rec, spans
}

// checkMetrics asserts a record reports exactly defs, with their units,
// as finite numbers.
func checkMetrics(t *testing.T, rec *Record, defs []Def, nonZero bool) {
	t.Helper()
	if len(rec.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", rec.Workload, len(rec.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rec.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", rec.Workload, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: %s unit %q, want %q", rec.Workload, d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", rec.Workload, d.Name, v.Value)
		case nonZero && v.Value <= 0:
			t.Errorf("%s: %s = %v, want > 0", rec.Workload, d.Name, v.Value)
		}
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at a tiny
// size: every metric is emitted with its declared unit, the end-to-end
// ones are positive, the trace parses and its spans nest.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			smoke(t, w)
		})
	}
}

func smoke(t *testing.T, w string) {
	rec, _ := tinyRun(t, w, 0, false)
	checkMetrics(t, rec, EndToEnd, true)
	line, err := rec.ResultLine()
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]json.RawMessage
	if err := json.Unmarshal(line, &parsed); err != nil || len(parsed) != 4 {
		t.Errorf("%s: result line %s: %v", w, line, err)
	}

	rec, spans := tinyRun(t, w, 0, true)
	checkMetrics(t, rec, PerLayer, false)
	if len(spans) == 0 {
		t.Fatalf("%s: traced run recorded no spans", w)
	}
	if err := checkNesting(spans); err != nil {
		t.Errorf("%s: %v", w, err)
	}
	for i, self := range SelfTimes(spans) {
		if self < 0 {
			t.Errorf("%s: span %d (%s) self time %d", w, i+1, spans[i].Name, self)
		}
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("%s: trace is not valid JSON", w)
	}
}

// TestHeldOutSeedsRunClean builds and runs every catalog program (the
// elide-all workload) under seeds 1 to 3 (seed 0 runs in the smoke test),
// checks that the simulated slowdown, taken from the committed profiles,
// is the same for every seed, and that the seeds change the programs'
// shape deterministically.
func TestHeldOutSeedsRunClean(t *testing.T) {
	var slowdown [4]float64
	t.Run("seeds", func(t *testing.T) {
		for seed := 1; seed <= 3; seed++ {
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				t.Parallel()
				rec, _ := tinyRun(t, "elide-all", uint64(seed), false)
				slowdown[seed] = rec.Metrics["sim_slowdown"].Value
			})
		}
	})
	if slowdown[2] != slowdown[1] || slowdown[3] != slowdown[1] {
		t.Errorf("sim_slowdown differs across seeds 1 to 3: %v", slowdown[1:])
	}
	base, a, b := Profile("xalancbmk", 0), Profile("xalancbmk", 1), Profile("xalancbmk", 1)
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds gave different profiles")
	}
	if reflect.DeepEqual(a, base) {
		t.Error("seed 1 left the profile unchanged")
	}
	if Profile("nope", 1) != nil {
		t.Error("unknown program resolved")
	}
}
