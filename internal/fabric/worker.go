package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"chex86/internal/campaign"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// ID is the worker's registration identity (required).
	ID string
	// Addr is informational (coordinator status listings).
	Addr string
	// Transport reaches the coordinator (required).
	Transport Transport
	// Pool executes leased cells. Its cache is typically a TieredCache so
	// cells hit local disk, then the coordinator's store, before
	// simulating (required).
	Pool *campaign.Pool
	// Clock drives poll and heartbeat sleeps. nil = frozen clock (only
	// usable with explicit PollOnce driving, as the chaos tests do).
	Clock Clock
	// PollInterval is the idle sleep between lease attempts (default
	// 500ms).
	PollInterval time.Duration
	// HeartbeatInterval is the beat period; 0 derives a third of the
	// coordinator's heartbeat TTL from the registration reply.
	HeartbeatInterval time.Duration
	// Concurrency is how many cells Run works in parallel (default 1).
	// Each slot leases, executes, and completes independently.
	Concurrency int
	// Logf, when set, receives worker lifecycle messages.
	Logf func(format string, args ...any)
}

func (o *WorkerOptions) setDefaults() error {
	if o.ID == "" {
		return fmt.Errorf("fabric: worker needs an ID")
	}
	if o.Transport == nil {
		return fmt.Errorf("fabric: worker needs a transport")
	}
	if o.Pool == nil {
		return fmt.Errorf("fabric: worker needs a pool")
	}
	if o.Clock == nil {
		o.Clock = frozenClock{}
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 500 * time.Millisecond
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// Worker is one fabric execution node: it registers with the coordinator,
// heartbeats, leases cells, executes them on its pool (through the
// two-tier cache), and reports completions. Safe for concurrent use.
type Worker struct {
	opts WorkerOptions

	mu         sync.Mutex
	registered bool
	hbInterval time.Duration
}

// NewWorker builds a worker.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	return &Worker{opts: opts, hbInterval: opts.HeartbeatInterval}, nil
}

// ID returns the worker's identity.
func (w *Worker) ID() string { return w.opts.ID }

// Register announces the worker to the coordinator and adopts the
// coordinator's heartbeat budget when no interval was configured.
func (w *Worker) Register(ctx context.Context) error {
	reply, err := w.opts.Transport.Register(ctx, WorkerInfo{
		ID:          w.opts.ID,
		Addr:        w.opts.Addr,
		Concurrency: w.opts.Concurrency,
	})
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.registered = true
	if w.opts.HeartbeatInterval <= 0 && reply.HeartbeatTTLMS > 0 {
		w.hbInterval = time.Duration(reply.HeartbeatTTLMS) * time.Millisecond / 3
	}
	if w.hbInterval <= 0 {
		w.hbInterval = 5 * time.Second
	}
	w.mu.Unlock()
	w.opts.Logf("fabric worker %s: registered (heartbeat every %v)", w.opts.ID, w.hbInterval)
	return nil
}

// Heartbeat sends one liveness beat, re-registering if the coordinator
// has forgotten this worker (expiry, coordinator restart).
func (w *Worker) Heartbeat(ctx context.Context) error {
	err := w.opts.Transport.Heartbeat(ctx, w.opts.ID)
	if isUnknownWorker(err) {
		w.opts.Logf("fabric worker %s: coordinator lost us, re-registering", w.opts.ID)
		return w.Register(ctx)
	}
	return err
}

// PollOnce leases at most one cell, executes it, and completes it.
// It returns whether a cell was worked. A completion that cannot be
// delivered is not retried here: the lease expires and the coordinator
// reassigns the cell, which is the fabric's single recovery path for
// lost messages.
func (w *Worker) PollOnce(ctx context.Context) (bool, error) {
	l, err := w.opts.Transport.Lease(ctx, w.opts.ID)
	if err != nil {
		if isUnknownWorker(err) {
			if rerr := w.Register(ctx); rerr != nil {
				return false, rerr
			}
			l, err = w.opts.Transport.Lease(ctx, w.opts.ID)
		}
		if err != nil {
			return false, err
		}
	}
	if l == nil {
		return false, nil
	}

	req := CompleteRequest{
		WorkerID:   w.opts.ID,
		LeaseID:    l.ID,
		CampaignID: l.CampaignID,
		CellIndex:  l.CellIndex,
	}
	res, runErr := w.runCell(ctx, l.Spec)
	if runErr != nil {
		req.Error = runErr.Error()
	} else {
		req.Result = res
	}
	if err := w.opts.Transport.Complete(ctx, req); err != nil {
		return true, fmt.Errorf("fabric: complete lease %d: %w", l.ID, err)
	}
	return true, nil
}

// runCell executes one cell through the worker's pool: singleflight,
// two-tier cache, and panic isolation all come with it.
func (w *Worker) runCell(ctx context.Context, spec campaign.Spec) (*campaign.Result, error) {
	job, err := w.opts.Pool.Submit(spec)
	if err != nil {
		return nil, err
	}
	return job.Wait(ctx)
}

// Run operates the worker until ctx is cancelled: register (retrying
// until the coordinator is reachable), heartbeat on the agreed interval,
// and Concurrency poll loops. On shutdown it deregisters so the
// coordinator requeues immediately instead of waiting out the TTL.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := w.Register(ctx); err == nil {
			break
		} else {
			w.opts.Logf("fabric worker %s: register: %v (retrying)", w.opts.ID, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-w.opts.Clock.After(w.opts.PollInterval):
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(ctx)
	}()
	for i := 0; i < w.opts.Concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.pollLoop(ctx)
		}()
	}
	<-ctx.Done()
	wg.Wait()

	// Best-effort graceful exit on a fresh context (ours is cancelled).
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = w.opts.Transport.Deregister(dctx, w.opts.ID)
	w.opts.Logf("fabric worker %s: deregistered", w.opts.ID)
	return ctx.Err()
}

func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		interval := w.hbInterval
		w.mu.Unlock()
		if interval <= 0 {
			interval = 5 * time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-w.opts.Clock.After(interval):
		}
		if err := w.Heartbeat(ctx); err != nil && ctx.Err() == nil {
			w.opts.Logf("fabric worker %s: heartbeat: %v", w.opts.ID, err)
		}
	}
}

func (w *Worker) pollLoop(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			return
		}
		worked, err := w.PollOnce(ctx)
		if err != nil && ctx.Err() == nil {
			w.opts.Logf("fabric worker %s: poll: %v", w.opts.ID, err)
		}
		if worked && err == nil {
			continue // queue may have more — lease again immediately
		}
		select {
		case <-ctx.Done():
			return
		case <-w.opts.Clock.After(w.opts.PollInterval):
		}
	}
}

// isUnknownWorker matches ErrUnknownWorker across transports.
func isUnknownWorker(err error) bool {
	return errors.Is(err, ErrUnknownWorker)
}
