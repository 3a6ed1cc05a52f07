package campaign

import (
	"context"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSingleflightErrorPropagation: when the one shared execution fails,
// every submitter that coalesced onto it must observe that same error —
// no waiter can hang or see a partial result.
func TestSingleflightErrorPropagation(t *testing.T) {
	release := make(chan struct{})
	execErr := errors.New("simulator exploded")
	var execs atomic.Int64
	pool := NewPool(Options{
		Workers: 2,
		Exec: func(_ context.Context, _ *Spec) (*Result, error) {
			execs.Add(1)
			<-release
			return nil, execErr
		},
	})
	defer pool.Close()

	first, err := pool.Submit(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	// Coalesce every submission while the one execution is still parked on
	// the release channel — it cannot finish, so dedup is guaranteed.
	const waiters = 8
	for i := 0; i < waiters; i++ {
		j, err := pool.Submit(testSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		if j != first {
			t.Fatalf("waiter %d did not coalesce onto the in-flight job", i)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-first.Done()
			_, errs[i] = first.Result()
		}(i)
	}
	close(release)
	wg.Wait()

	for i, werr := range errs {
		if !errors.Is(werr, execErr) {
			t.Fatalf("waiter %d got %v, want the shared execution error", i, werr)
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions for %d coalesced submissions, want 1", got, waiters+1)
	}
}

// TestCacheTruncatedEntryIsMiss: an entry truncated mid-write (host crash
// during Put before the fsync barrier) must read as a miss — and a fresh
// Put must heal it.
func TestCacheTruncatedEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(1)
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	res := fakeResult(spec.Workload)
	if err := cache.Put(key, spec, res); err != nil {
		t.Fatal(err)
	}

	// Truncate the entry to half its bytes — valid JSON prefix of an
	// Entry, invalid document.
	path := cache.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh Cache (no in-memory index) must treat it as a miss.
	reopened, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reopened.Get(key); ok {
		t.Fatal("truncated entry served as a hit")
	}

	// Healing: a new Put overwrites the torn file and restores the hit.
	if err := reopened.Put(key, spec, res); err != nil {
		t.Fatal(err)
	}
	healed, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := healed.Get(key); !ok {
		t.Fatal("re-Put did not heal the truncated entry")
	}

	// The canonical bytes round-tripped: the healed file equals the
	// original pre-truncation content.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(data) {
		t.Fatal("healed entry differs from the original canonical bytes")
	}
}
