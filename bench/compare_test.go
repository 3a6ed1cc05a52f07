package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runSet builds one untraced run per value for workload w: every
// end-to-end metric reads 100 except metric, which reads the given value.
func runSet(w, metric string, vals ...float64) []*Record {
	var out []*Record
	for i, v := range vals {
		r := &Record{Workload: w, Seed: uint64(i), Correct: true, Attempted: 1, Metrics: map[string]Value{}}
		for _, d := range EndToEnd {
			r.Metrics[d.Name] = Value{Value: 100, Unit: d.Unit}
		}
		r.Metrics[metric] = Value{Value: v, Unit: "x"}
		out = append(out, r)
	}
	return out
}

func scaled(xs []float64, f, add float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x*f + add
	}
	return out
}

func rowFor(t *testing.T, rows []Row, w, metric string) Row {
	t.Helper()
	for _, r := range rows {
		if r.Workload == w && r.Metric.Name == metric {
			return r
		}
	}
	t.Fatalf("no row for %s %s", w, metric)
	return Row{}
}

// TestCompareVerdicts covers every verdict on hand-built samples of a
// higher-is-better and a lower-is-better metric with a 10% bound, and
// checks that Compare applies them per workload and metric.
func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{60, 140, 80, 120, 70, 130, 90, 110, 65, 135}
	higher := Def{"rate", "1/s", "higher", 0.10}
	lower := Def{"time", "ms", "lower", 0.10}
	for _, c := range []struct {
		name string
		d    Def
		a, b []float64
		want string
	}{
		{"gain", higher, steady, scaled(steady, 1, 20), Improved},
		{"within bound", higher, steady, scaled(steady, 0.95, 0), NoWorse},
		{"identical", higher, steady, steady, NoWorse},
		{"beyond bound", higher, steady, scaled(steady, 0.8, 0), Worse},
		{"noisy", higher, noisy, scaled(noisy, 0.98, 0), Unresolved},
		{"noisy but always better", higher, noisy, scaled(noisy, 0, 200), Improved},
		{"time gain", lower, steady, scaled(steady, 0.8, 0), Improved},
		{"time loss", lower, steady, scaled(steady, 1.2, 0), Worse},
	} {
		if got := verdict(c.d, c.a, c.b, WinFraction(c.a, c.b, c.d.HigherBetter())); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}

	const setup = "setup_s"
	rows, err := Compare(runSet("spec-ptr", setup, steady...), runSet("spec-ptr", setup, scaled(steady, 1.2, 0)...))
	if err != nil {
		t.Fatal(err)
	}
	if got := rowFor(t, rows, "spec-ptr", setup).Verdict; got != Worse {
		t.Errorf("setup_s 20%% slower: verdict %q, want %q", got, Worse)
	}
	if got := rowFor(t, rows, "spec-ptr", "host_mem_mb").Verdict; got != NoWorse {
		t.Errorf("unchanged metric judged %q", got)
	}
}

// TestComparePerLayer checks that traced runs are compared on their
// per-layer metrics, which can read improved but are never judged worse,
// and that layers a workload does not exercise get no row.
func TestComparePerLayer(t *testing.T) {
	traced := func(vals ...float64) []*Record {
		var out []*Record
		for i, v := range vals {
			out = append(out, &Record{Workload: "spec-ptr", Seed: uint64(i), Trace: true, Correct: true, Attempted: 1,
				Metrics: map[string]Value{"kinst_per_s.insecure": {Value: v, Unit: "Kinst/s"}}})
		}
		return out
	}
	a := traced(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		f    float64
		want string
	}{{1.2, Improved}, {0.5, NotJudged}} {
		var vals []float64
		for _, r := range a {
			vals = append(vals, r.Metrics["kinst_per_s.insecure"].Value*c.f)
		}
		rows, err := Compare(a, traced(vals...))
		if err != nil {
			t.Fatal(err)
		}
		if got := rowFor(t, rows, "spec-ptr", "kinst_per_s.insecure"); !got.PerLayer || got.Verdict != c.want {
			t.Errorf("x%v: row %+v, want a per-layer row judged %q", c.f, got, c.want)
		}
		if len(rows) != 1 {
			t.Errorf("x%v: %d rows, want only the metric that reads non-zero", c.f, len(rows))
		}
	}
}

func TestCompareWinFractionPairsBySeed(t *testing.T) {
	a := runSet("stream-fp", "host_mem_mb", 10, 20, 30)
	b := runSet("stream-fp", "host_mem_mb", 11, 21, 31)
	b[0].Seed, b[2].Seed = 2, 0 // b now holds 31@0, 21@1, 11@2: only the pair at seed 2 wins, by 19
	rows, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowFor(t, rows, "stream-fp", "host_mem_mb").WinFrac; !near(got, 1.0/3) {
		t.Errorf("win fraction %v, want 1/3", got)
	}
}

// TestCompareSimMetrics checks that a simulated metric must repeat exactly
// within each set, and that between sets it is judged against its bound of
// 0 like any other metric.
func TestCompareSimMetrics(t *testing.T) {
	const sd = "sim_slowdown"
	a := runSet("elide-all", sd, 1.1, 1.1, 1.1)
	if _, err := Compare(a, runSet("elide-all", sd, 1.1, 1.2, 1.1)); err == nil || !strings.Contains(err.Error(), sd) {
		t.Errorf("simulated metric drift within a set not flagged: %v", err)
	}
	for _, c := range []struct {
		b    float64
		want string
	}{{1.1, NoWorse}, {1.09, Improved}, {1.11, Worse}} {
		rows, err := Compare(a, runSet("elide-all", sd, c.b, c.b, c.b))
		if err != nil {
			t.Fatalf("%v: %v", c.b, err)
		}
		if got := rowFor(t, rows, "elide-all", sd).Verdict; got != c.want {
			t.Errorf("%s %v against 1.1: verdict %q, want %q", sd, c.b, got, c.want)
		}
	}
	b := runSet("elide-all", sd, 1.1, 1.1, 1.1)
	b[1].Failed, b[1].Correct = 1, false
	if _, err := Compare(a, b); err == nil || !strings.Contains(err.Error(), "failed") {
		t.Errorf("failed run not flagged: %v", err)
	}
}

func TestLoadRunsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for i, r := range runSet("fabric-mix", "setup_s", 0.5, 0.6) {
		f, err := os.Create(filepath.Join(dir, string(rune('a'+i))+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteRecord(f, r); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	runs, err := LoadRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[1].Metrics["setup_s"].Value != 0.6 {
		t.Fatalf("loaded %+v", runs)
	}
	if _, err := LoadRuns(t.TempDir()); err == nil {
		t.Error("empty directory accepted")
	}
}
