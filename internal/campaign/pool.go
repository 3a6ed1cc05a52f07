package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"chex86/internal/pipeline"
)

// ExecFunc executes one spec. The default is Execute (exec.go); tests and
// embedders substitute their own.
type ExecFunc func(ctx context.Context, spec *Spec) (*Result, error)

// ResultCache memoizes completed results by content address. *Cache is
// the on-disk implementation; the distributed fabric plugs in a two-tier
// cache (local disk, then peer fetch) through the same interface.
// Implementations must be safe for concurrent use; Lookup failures are
// misses, and Store failures only degrade future lookups.
type ResultCache interface {
	Lookup(spec Spec, key string) (*Result, bool)
	Store(spec Spec, key string, r *Result) error
}

// Options configures a Pool. The zero value is usable: GOMAXPROCS
// workers, no cache, the default executor, and no wall-clock probe.
type Options struct {
	// Workers is the number of worker goroutines. Defaults to GOMAXPROCS —
	// the pool runs compute-bound simulations, so more workers than
	// processors only adds contention.
	Workers int

	// Cache memoizes completed results by content address (nil = off).
	Cache ResultCache

	// Exec runs one spec (nil = Execute).
	Exec ExecFunc

	// Clock is the host wall-clock probe in nanoseconds, injected by the
	// embedder (the campaign package itself never reads the wall clock —
	// the chexvet determinism gate holds it to that). nil disables per-job
	// wall-time measurement; job WallNS stays zero.
	Clock func() int64
}

func (o *Options) setDefaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Exec == nil {
		o.Exec = Execute
	}
	if o.Clock == nil {
		o.Clock = func() int64 { return 0 }
	}
}

// Job is one scheduled simulation. Identical specs submitted while a job
// is in flight coalesce onto the same Job (singleflight), so a Job may
// have many waiters but runs at most one simulation.
type Job struct {
	ID   int
	Key  string
	Spec Spec

	done chan struct{}

	mu     sync.Mutex
	cached bool
	wallNS int64
	result *Result
	err    error
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes or ctx is cancelled.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Result returns the terminal result and error (nil, nil while running).
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// WallNS returns the host execution time (0 for cache hits or when the
// pool has no clock).
func (j *Job) WallNS() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wallNS
}

// Cached reports whether the result came from the content-addressed cache.
func (j *Job) Cached() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cached
}

// Pool executes jobs from one FIFO queue on a fixed set of workers, with
// singleflight dedup, content-addressed memoization and per-job panic
// isolation.
type Pool struct {
	opts    Options
	metrics Metrics

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	notify chan struct{}

	mu       sync.Mutex
	closed   bool
	nextID   int
	queue    []*Job          // submitted, not yet taken by a worker
	inflight map[string]*Job // key → pending/running job (singleflight)
}

// NewPool starts a pool and its workers.
func NewPool(opts Options) *Pool {
	opts.setDefaults()
	p := &Pool{
		opts: opts,
		// One wake-up token per worker: Submit never blocks on a send, and
		// a full buffer means every worker will look at the queue again.
		notify:   make(chan struct{}, opts.Workers),
		inflight: make(map[string]*Job),
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	p.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.opts.Workers }

// Metrics exposes the pool's counters.
func (p *Pool) Metrics() *Metrics { return &p.metrics }

// errClosed is the terminal error of a job the pool will never run.
func errClosed() error {
	return &pipeline.SimError{Kind: pipeline.ErrCanceled, Msg: "campaign pool closed"}
}

// Submit schedules a spec and returns its job. If an identical spec (same
// content address) is already pending or running, its Job is returned
// instead of starting a second simulation; if the cache already holds the
// result, the returned job is complete before Submit returns, marked
// cached.
func (p *Pool) Submit(spec Spec) (*Job, error) {
	key, err := spec.Key()
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("campaign: pool is closed")
	}
	p.metrics.Submitted.Add(1)
	if j := p.inflight[key]; j != nil {
		p.mu.Unlock()
		p.metrics.Deduped.Add(1)
		return j, nil
	}
	p.nextID++
	j := &Job{ID: p.nextID, Key: key, Spec: spec, done: make(chan struct{})}
	p.inflight[key] = j
	p.mu.Unlock()

	if p.opts.Cache != nil {
		if res, ok := p.opts.Cache.Lookup(spec, key); ok {
			p.metrics.CacheHits.Add(1)
			j.mu.Lock()
			j.cached = true
			j.mu.Unlock()
			p.finish(j, res, nil)
			return j, nil
		}
		p.metrics.CacheMisses.Add(1)
	}

	p.mu.Lock()
	if p.closed {
		// Close ran during the cache lookup, and its drain of the queue
		// may already be past: nothing would ever take this job.
		p.mu.Unlock()
		p.finish(j, nil, errClosed())
		return j, nil
	}
	p.queue = append(p.queue, j)
	p.mu.Unlock()
	select {
	case p.notify <- struct{}{}:
	default:
	}
	return j, nil
}

// Close stops the workers and fails every job that has not finished with a
// cancellation error. It is safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()

	p.cancel()
	p.wg.Wait()

	// Workers are gone, so every job they took has finished; what is
	// still queued gets a terminal cancellation so waiters unblock.
	p.mu.Lock()
	queued := p.queue
	p.queue = nil
	p.mu.Unlock()
	for _, j := range queued {
		p.finish(j, nil, errClosed())
	}
}

// worker takes jobs from the queue until the pool closes.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		j := p.pop()
		if j == nil {
			select {
			case <-p.ctx.Done():
				return
			case <-p.notify:
				continue
			}
		}
		if p.ctx.Err() != nil {
			p.finish(j, nil, errClosed())
			continue
		}
		p.runJob(j)
	}
}

// pop takes the oldest queued job, or nil.
func (p *Pool) pop() *Job {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		return nil
	}
	j := p.queue[0]
	p.queue[0] = nil
	p.queue = p.queue[1:]
	return j
}

// runJob executes one job, records its wall time, and publishes the
// result (to waiters and, on success, the cache).
func (p *Pool) runJob(j *Job) {
	p.metrics.Started.Add(1)
	start := p.opts.Clock()
	res, err := p.execOne(j)
	elapsed := p.opts.Clock() - start
	j.mu.Lock()
	j.wallNS = elapsed
	j.mu.Unlock()

	if err != nil {
		p.finish(j, nil, err)
		return
	}
	if p.opts.Cache != nil {
		// A cache-write failure degrades future runs, not this one: the
		// result is still correct, so the job succeeds and the miss is
		// simply paid again next sweep.
		_ = p.opts.Cache.Store(j.Spec, j.Key, res)
	}
	p.finish(j, res, nil)
}

// execOne runs the executor once with panic isolation: a panic anywhere in
// the simulator becomes this job's error, never the pool's crash.
func (p *Pool) execOne(j *Job) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.metrics.Panics.Add(1)
			err = fmt.Errorf("campaign: job %d (%s %s) panicked: %v", j.ID, j.Spec.Mode, j.Spec.Workload, r)
		}
	}()
	return p.opts.Exec(p.ctx, &j.Spec)
}

// finish moves a job to its terminal state exactly once.
func (p *Pool) finish(j *Job, res *Result, err error) {
	j.mu.Lock()
	select {
	case <-j.done:
		j.mu.Unlock()
		return
	default:
	}
	j.result, j.err = res, err
	if err != nil {
		p.metrics.Failed.Add(1)
	} else {
		p.metrics.Completed.Add(1)
	}
	close(j.done)
	j.mu.Unlock()

	p.mu.Lock()
	if p.inflight[j.Key] == j {
		delete(p.inflight, j.Key)
	}
	p.mu.Unlock()
}
