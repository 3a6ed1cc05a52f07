package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"chex86/internal/campaign"
	"chex86/internal/faultinject"
)

// Chaos errors: how injected transport faults surface to the worker.
var (
	// ErrChaosDropped: the message was lost in transit (faultinject
	// SiteMsgDrop). The caller sees an ordinary transport failure.
	ErrChaosDropped = errors.New("fabric: chaos: message dropped")
	// ErrChaosKilled: the worker is dead (faultinject SiteWorkerKill);
	// every call fails from now on, including completions for cells it
	// already executed.
	ErrChaosKilled = errors.New("fabric: chaos: worker killed")
)

// ChaosOptions parameterizes a ChaosTransport. Percentages are per-call
// probabilities in [0, 100]; the streams are deterministic xorshift64
// sequences derived with faultinject.DeriveSeed, so a chaos campaign with
// the same seed replays the same fault schedule.
type ChaosOptions struct {
	// Seed derives this transport's fault stream (0 = 1).
	Seed uint64
	// Name tags the stream (typically the worker ID) so two transports
	// with the same seed still fault independently.
	Name string
	// Clock drives injected delays. nil = frozen clock (only valid with
	// DelayPct 0).
	Clock Clock

	// DropPct drops a call before it reaches the coordinator
	// (faultinject.SiteMsgDrop).
	DropPct int
	// DupPct delivers an idempotent mutation (Register, Heartbeat,
	// Complete, Deregister) twice (faultinject.SiteMsgDup).
	DupPct int
	// DelayPct stalls a call for Delay before delivery
	// (faultinject.SiteMsgDelay).
	DelayPct int
	// Delay is the injected stall (default 50ms of the injected clock).
	Delay time.Duration
	// CorruptPct mangles FetchResult responses so cache validation must
	// reject them (faultinject.SitePeerCorrupt).
	CorruptPct int
	// KillAfter kills the worker after that many transport calls
	// (faultinject.SiteWorkerKill); 0 = immortal.
	KillAfter int
}

// ChaosTransport wraps a Transport with seeded, deterministic fault
// injection over the fabric's message layer — the distributed counterpart
// of faultinject's microarchitectural campaign. It extends the same
// fail-closed discipline to the serving infrastructure: under any
// schedule of drops, duplicates, delays, kills, and corrupt cache
// responses, the fabric must lose no cell, double-count no cell, and
// merge byte-identically (the chaos differential gate asserts exactly
// that).
type ChaosTransport struct {
	inner Transport
	opts  ChaosOptions

	mu   sync.Mutex
	rng  uint64
	ops  int
	dead bool
}

var _ Transport = (*ChaosTransport)(nil)

// NewChaosTransport wraps inner with injected faults.
func NewChaosTransport(inner Transport, opts ChaosOptions) *ChaosTransport {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Clock == nil {
		opts.Clock = frozenClock{}
	}
	if opts.Delay <= 0 {
		opts.Delay = 50 * time.Millisecond
	}
	seed := faultinject.DeriveSeed(opts.Seed, "fabric-chaos", opts.Name)
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &ChaosTransport{inner: inner, opts: opts, rng: seed}
}

// Dead reports whether the kill switch has tripped.
func (c *ChaosTransport) Dead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// roll advances the xorshift stream and tests a percentage. Callers hold
// c.mu.
func (c *ChaosTransport) roll(pct int) bool {
	if pct <= 0 {
		return false
	}
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return int(c.rng%100) < pct
}

// before applies the pre-delivery faults shared by every call: kill
// budget, drop, delay.
func (c *ChaosTransport) before(op string) error {
	c.mu.Lock()
	c.ops++
	if c.opts.KillAfter > 0 && c.ops > c.opts.KillAfter {
		c.dead = true
	}
	if c.dead {
		c.mu.Unlock()
		return fmt.Errorf("%w (%s)", ErrChaosKilled, op)
	}
	if c.roll(c.opts.DropPct) {
		c.mu.Unlock()
		return fmt.Errorf("%w (%s)", ErrChaosDropped, op)
	}
	delay := c.roll(c.opts.DelayPct)
	c.mu.Unlock()
	if delay {
		<-c.opts.Clock.After(c.opts.Delay)
	}
	return nil
}

// dup decides whether to deliver an idempotent mutation twice.
func (c *ChaosTransport) dup() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.dead && c.roll(c.opts.DupPct)
}

func (c *ChaosTransport) Register(ctx context.Context, info WorkerInfo) (*RegisterReply, error) {
	if err := c.before("register"); err != nil {
		return nil, err
	}
	reply, err := c.inner.Register(ctx, info)
	if err == nil && c.dup() {
		_, _ = c.inner.Register(ctx, info)
	}
	return reply, err
}

func (c *ChaosTransport) Heartbeat(ctx context.Context, workerID string) error {
	if err := c.before("heartbeat"); err != nil {
		return err
	}
	err := c.inner.Heartbeat(ctx, workerID)
	if err == nil && c.dup() {
		_ = c.inner.Heartbeat(ctx, workerID)
	}
	return err
}

func (c *ChaosTransport) Deregister(ctx context.Context, workerID string) error {
	if err := c.before("deregister"); err != nil {
		return err
	}
	err := c.inner.Deregister(ctx, workerID)
	if err == nil && c.dup() {
		_ = c.inner.Deregister(ctx, workerID)
	}
	return err
}

func (c *ChaosTransport) Lease(ctx context.Context, workerID string) (*Lease, error) {
	if err := c.before("lease"); err != nil {
		return nil, err
	}
	// Leases are not duplicated: a second lease would grab a second cell,
	// which models a different fault (worker overload) than message
	// duplication. The dup probe targets the idempotent mutations.
	return c.inner.Lease(ctx, workerID)
}

func (c *ChaosTransport) Complete(ctx context.Context, req CompleteRequest) error {
	if err := c.before("complete"); err != nil {
		return err
	}
	err := c.inner.Complete(ctx, req)
	if err == nil && c.dup() {
		_ = c.inner.Complete(ctx, req)
	}
	return err
}

func (c *ChaosTransport) FetchResult(ctx context.Context, key string) (*campaign.Result, error) {
	if err := c.before("fetch"); err != nil {
		return nil, err
	}
	res, err := c.inner.FetchResult(ctx, key)
	if err != nil || res == nil {
		return res, err
	}
	corrupt := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.roll(c.opts.CorruptPct)
	}()
	if corrupt {
		// Mangle the payload the way a truncated or bit-flipped wire
		// message would: the schema no longer matches, so the two-tier
		// cache must treat it as a miss and recompute.
		bad := *res
		bad.Schema = "chaos-corrupt/v0"
		return &bad, nil
	}
	return res, nil
}
