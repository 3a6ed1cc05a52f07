package campaign

import (
	"bytes"
	"context"
	"testing"
	"time"

	"chex86/internal/faultinject"
	"chex86/internal/pipeline"
)

// TestBenchJobEndToEnd runs a real (tiny) simulation through the pool
// twice and checks that the second pass is a pure cache hit with an
// identical payload.
func TestBenchJobEndToEnd(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := BenchSpec("mcf", pipeline.DefaultConfig(), 0.1, 5000, 0)

	pool := NewPool(Options{Workers: 2, Cache: cache})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	j1, err := pool.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := j1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if j1.Cached() {
		t.Fatal("first run reported a cache hit on a cold cache")
	}
	if r1.Bench == nil || r1.Bench.Cycles == 0 || r1.Bench.Insts == 0 {
		t.Fatalf("degenerate bench result: %+v", r1.Bench)
	}
	if r1.Workload != "mcf" || r1.Variant != "prediction" {
		t.Fatalf("result labels: workload=%q variant=%q", r1.Workload, r1.Variant)
	}
	pool.Close()

	pool2 := NewPool(Options{Workers: 2, Cache: cache})
	defer pool2.Close()
	j2, err := pool2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := j2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached() {
		t.Fatal("second identical run was not served from the cache")
	}
	if r2.Bench.Cycles != r1.Bench.Cycles || r2.Bench.Insts != r1.Bench.Insts {
		t.Fatalf("cached result diverged: %+v vs %+v", r2.Bench, r1.Bench)
	}
	m := pool2.Metrics().Snapshot()
	if m.CacheHits != 1 || m.Started != 0 {
		t.Fatalf("second pool: hits=%d started=%d, want 1/0", m.CacheHits, m.Started)
	}
}

// TestFaultCellsMatchSequential is the determinism contract that makes
// fault campaigns shardable job types: cells executed through the pool and
// merged must reproduce faultinject.Run's sequential report byte for byte.
func TestFaultCellsMatchSequential(t *testing.T) {
	cfg := faultinject.Config{
		Seed:         7,
		Workloads:    []string{"mcf"},
		Variants:     []string{"prediction"},
		Sites:        faultinject.AllSites()[:2],
		FaultsPerRun: 5,
		Scale:        0.25,
		MaxInsts:     4000,
	}
	seq, err := faultinject.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqJSON, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}

	pool := NewPool(Options{Workers: 4})
	defer pool.Close()
	var jobs []*Job
	for _, cell := range cfg.Cells() {
		j, err := pool.Submit(FaultSpec(cell))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var cells []*faultinject.Report
	for _, j := range jobs {
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fault == nil {
			t.Fatal("fault job returned no fault report")
		}
		cells = append(cells, res.Fault)
	}
	merged := faultinject.Merge(cfg, cells)
	mergedJSON, err := merged.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, mergedJSON) {
		t.Fatalf("pooled fault campaign diverged from sequential run:\n--- sequential ---\n%s\n--- merged ---\n%s", seqJSON, mergedJSON)
	}
}

// TestBenchMatchesSequentialHarness: a campaign bench job must report the
// same simulated machine behaviour as the sequential experiments path —
// the pool changes scheduling, never results.
func TestBenchMatchesSequentialHarness(t *testing.T) {
	spec := BenchSpec("lbm", pipeline.DefaultConfig(), 0.1, 5000, 0)
	ctx := context.Background()
	r1, err := Execute(ctx, &spec)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(Options{Workers: 2})
	defer pool.Close()
	j, err := pool.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	r2, err := j.Wait(wctx)
	if err != nil {
		t.Fatal(err)
	}
	if *r1.Bench != *r2.Bench {
		t.Fatalf("pooled result diverged from direct execution:\n%+v\n%+v", r1.Bench, r2.Bench)
	}
}
