package bench

import (
	"math"
	"runtime"
	"testing"

	"chex86/internal/decode"
	"chex86/internal/workload"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(c.xs); !near(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins Quartiles to statistics.quantiles(xs, n=4)
// (values computed with CPython 3).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
		{[]float64{2.5, 1.0}, [3]float64{0.625, 1.75, 2.875}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("Spread = %v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted order
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}

// TestBeyondTenRule pins the count the reporting rule needs: a
// percentile says more than its worst sample only with ten beyond it.
func TestBeyondTenRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{99, 90, 9}, // p90 of 99 samples is not reportable
		{100, 90, 10},
		{200, 95, 10},
		{1000, 99, 10},
		{10000, 99.9, 10}, // 99.9% of 10000 must land on rank 9990 exactly
		{20, 50, 10},
		{19, 50, 9},
		{1, 50, 0},
	} {
		if got := Beyond(c.n, c.p); got != c.beyond {
			t.Errorf("Beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
}

func TestWinFraction(t *testing.T) {
	a := []float64{10, 10, 10, 10}
	b := []float64{11, 10, 9, 12}
	if got := WinFraction(a, b, true); got != 0.5 {
		t.Errorf("higher-better wins = %v, want 0.5 (the tie counts for neither)", got)
	}
	if got := WinFraction(a, b, false); got != 0.25 {
		t.Errorf("lower-better wins = %v, want 0.25", got)
	}
	if got := WinFraction(a, b[:2], true); got != 0.5 {
		t.Errorf("unequal lengths pair the prefix: %v", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("Geomean = %v, want 4", got)
	}
}

// TestTimingsPriceCells pins how the sim workloads price a cell over its
// rounds: each piece of work at its least time, plus the collector's mean
// CPU time per round.
func TestTimingsPriceCells(t *testing.T) {
	c := cell{prof: workload.ByName("mcf"), variant: decode.VariantInsecure}
	rd := func(chunks []int64, gc, setup int64) round {
		return round{cells: []cellResult{{cell: c, chunkNS: chunks, firstMeasured: 1, measured: 2000,
			gcNS: gc, resultNS: 5, setupNS: [numSetupSteps]int64{stepBuild: setup, stepNewSim: 20}}}}
	}
	tm := timingsOf([]round{rd([]int64{100, 300, 200}, 0, 10), rd([]int64{90, 200, 400}, 100, 30)})
	ct := tm[c.name()]
	if got := ct.stepNS(); got != 200+200+50 {
		t.Errorf("step price %v, want 450 (measured chunks at their minima, collector mean 50)", got)
	}
	if got := ct.jobNS(); got != 450+90+5+10+20 {
		t.Errorf("job price %v, want 575 (plus warmup chunk, Result and set-up at their minima)", got)
	}
	if got := tm.kinst(anyCell); !near(got, 2000*1e6/450) {
		t.Errorf("Kinst/s %v", got)
	}
}

func TestGCCPUCountsCollections(t *testing.T) {
	before := gcCPU()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if after := gcCPU(); after <= before {
		t.Errorf("collector CPU time %d after three collections, %d before", after, before)
	}
}
