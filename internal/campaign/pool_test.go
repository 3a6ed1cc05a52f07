package campaign

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chex86/internal/pipeline"
)

// testSpec returns a cheap-but-real bench spec; vary n for distinct keys.
func testSpec(n uint64) Spec {
	return BenchSpec("mcf", pipeline.DefaultConfig(), 0.1, 1000+n, 0)
}

// TestSingleflightDedup is the concurrency contract of the cache: many
// identical jobs submitted in parallel must collapse to ONE simulation.
// Run under -race (CI does), this also exercises the pool's locking.
func TestSingleflightDedup(t *testing.T) {
	var execs atomic.Int64
	release := make(chan struct{})
	pool := NewPool(Options{
		Workers: 4,
		Exec: func(ctx context.Context, spec *Spec) (*Result, error) {
			execs.Add(1)
			<-release // hold the job in flight while the others submit
			return fakeResult(spec.Workload), nil
		},
	})
	defer pool.Close()

	const submitters = 16
	var wg sync.WaitGroup
	jobs := make([]*Job, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := pool.Submit(testSpec(1))
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, j := range jobs {
		if j == nil {
			t.Fatalf("submitter %d got no job", i)
		}
		if j != jobs[0] {
			t.Fatalf("submitter %d got a distinct job: singleflight broken", i)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d identical submissions ran %d simulations, want 1", submitters, got)
	}
	m := pool.Metrics().Snapshot()
	if m.Submitted != submitters || m.Deduped != submitters-1 {
		t.Fatalf("metrics: submitted=%d deduped=%d, want %d/%d", m.Submitted, m.Deduped, submitters, submitters-1)
	}
}

// TestSingleflightWithCache: parallel identical submissions against a real
// cache still simulate once, and a post-completion resubmission is a pure
// cache hit (no execution at all).
func TestSingleflightWithCache(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	exec := func(ctx context.Context, spec *Spec) (*Result, error) {
		execs.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the submission race window
		return fakeResult(spec.Workload), nil
	}
	pool := NewPool(Options{Workers: 4, Cache: cache, Exec: exec})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := pool.Submit(testSpec(2))
			if err != nil {
				t.Error(err)
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := j.Wait(ctx); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("parallel identical jobs ran %d simulations, want 1", got)
	}

	// Resubmit after completion: must be served from the cache.
	j, err := pool.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("cache-hit job not complete at submit return")
	}
	if !j.Cached() {
		t.Fatal("resubmission after completion was not marked cached")
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("cache hit re-ran the simulation (%d executions)", got)
	}
	pool.Close()

	// And a brand-new pool over the same directory hits too.
	pool2 := NewPool(Options{Workers: 2, Cache: cache, Exec: exec})
	defer pool2.Close()
	j2, err := pool2.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached() {
		t.Fatal("fresh pool over a warm cache dir missed")
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("fresh pool re-ran the simulation (%d executions)", got)
	}
}

func TestPanicIsolation(t *testing.T) {
	pool := NewPool(Options{
		Workers: 2,
		Exec: func(ctx context.Context, spec *Spec) (*Result, error) {
			if spec.MaxInsts == 1001 {
				panic("synthetic simulator bug")
			}
			return fakeResult(spec.Workload), nil
		},
	})
	defer pool.Close()

	bad, err := pool.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	good, err := pool.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := bad.Wait(ctx); err == nil {
		t.Fatal("panicking job reported success")
	} else if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("unexpected error shape: %v", err)
	}
	if _, err := good.Wait(ctx); err != nil {
		t.Fatalf("pool did not survive a sibling job's panic: %v", err)
	}
	if pool.Metrics().Panics.Load() != 1 {
		t.Fatalf("panic not counted")
	}
	if m := pool.Metrics().Snapshot(); m.Failed != 1 || m.Completed != 1 {
		t.Fatalf("metrics: failed=%d completed=%d, want 1/1", m.Failed, m.Completed)
	}
}

// TestPermanentErrorsNotRetried: a failing run fails its job after one
// execution. Nothing is retried: a deterministic failure would fail the
// same way again, and the pool sets no per-job deadline, so no failure is
// transient.
func TestPermanentErrorsNotRetried(t *testing.T) {
	var attempts atomic.Int64
	pool := NewPool(Options{
		Workers: 1,
		Exec: func(ctx context.Context, spec *Spec) (*Result, error) {
			attempts.Add(1)
			if spec.MaxInsts == 1001 {
				return nil, &pipeline.SimError{Kind: pipeline.ErrCycleLimit, Msg: "livelock"}
			}
			return nil, &pipeline.SimError{Kind: pipeline.ErrDeadline, Msg: "deadline"}
		},
	})
	defer pool.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range []uint64{1, 2} {
		j, err := pool.Submit(testSpec(n))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err == nil {
			t.Fatalf("spec %d: failing run reported success", n)
		}
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("two failing jobs executed %d times, want 2", got)
	}
	if m := pool.Metrics().Snapshot(); m.Started != 2 || m.Failed != 2 {
		t.Fatalf("metrics: started=%d failed=%d, want 2/2", m.Started, m.Failed)
	}
}

func TestCloseCancelsPendingJobs(t *testing.T) {
	started := make(chan struct{})
	block := make(chan struct{})
	pool := NewPool(Options{
		Workers: 1,
		Exec: func(ctx context.Context, spec *Spec) (*Result, error) {
			close(started)
			select {
			case <-ctx.Done():
				return nil, &pipeline.SimError{Kind: pipeline.ErrCanceled, Msg: "ctx", Err: ctx.Err()}
			case <-block:
				return fakeResult(spec.Workload), nil
			}
		},
	})

	running, err := pool.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := pool.Submit(testSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	pool.Close()
	close(block)

	for _, j := range []*Job{running, queued} {
		<-j.Done()
		_, err := j.Result()
		var se *pipeline.SimError
		if !errors.As(err, &se) || se.Kind != pipeline.ErrCanceled {
			t.Fatalf("job %d after Close: err = %v, want canceled SimError", j.ID, err)
		}
	}
	if _, err := pool.Submit(testSpec(3)); err == nil {
		t.Fatal("Submit accepted work on a closed pool")
	}
}

func TestPoolParallelism(t *testing.T) {
	// With W workers and W long jobs, all W must be in flight at once —
	// the sharded queues plus work stealing may not serialize them.
	const workers = 4
	var inflight, peak atomic.Int64
	release := make(chan struct{})
	pool := NewPool(Options{
		Workers: workers,
		Exec: func(ctx context.Context, spec *Spec) (*Result, error) {
			cur := inflight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			<-release
			inflight.Add(-1)
			return fakeResult(spec.Workload), nil
		},
	})
	defer pool.Close()

	var jobs []*Job
	for i := 0; i < workers; i++ {
		j, err := pool.Submit(testSpec(uint64(10 + i)))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	deadline := time.After(30 * time.Second)
	for peak.Load() < workers {
		select {
		case <-deadline:
			t.Fatalf("peak parallelism %d never reached %d workers", peak.Load(), workers)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}
