package fabric

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"chex86/internal/campaign"
	"chex86/internal/faultinject"
)

// diffConfig is the campaign used by the differential gates: small enough
// to run in test time, wide enough to shard into six cells.
func diffConfig() faultinject.Config {
	return faultinject.Config{
		Seed:         11,
		Workloads:    []string{"mcf"},
		Variants:     []string{"always-on", "prediction"},
		FaultsPerRun: 5,
		MaxInsts:     4000,
		Sites: []faultinject.Site{
			faultinject.SiteCapTable,
			faultinject.SiteCapCache,
			faultinject.SiteCtxSwitch,
		},
	}
}

// sequentialJSON runs the campaign single-node, sequentially — the bytes
// every fabric execution must reproduce.
func sequentialJSON(t *testing.T) []byte {
	t.Helper()
	rep, err := faultinject.Run(diffConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// driveFabric round-robins the workers (one heartbeat + one poll each per
// round), advancing the logical clock between rounds so leases and
// heartbeats can expire, until the campaign completes.
func driveFabric(t *testing.T, c *Coordinator, clock *LogicalClock, camp *Campaign, workers []*Worker, step time.Duration) {
	t.Helper()
	ctx := context.Background()
	for round := 0; ; round++ {
		select {
		case <-camp.Done():
			return
		default:
		}
		if round > 300 {
			t.Fatalf("campaign not done after %d rounds: %+v", round, camp.Status(true))
		}
		for _, w := range workers {
			_ = w.Heartbeat(ctx)   // chaos may drop or kill these —
			_, _ = w.PollOnce(ctx) // recovery is the fabric's job
		}
		clock.Advance(step)
		c.Tick()
	}
}

// TestFabricDifferential: a clean three-worker fabric produces a merged
// report byte-identical to the single-node sequential run.
func TestFabricDifferential(t *testing.T) {
	want := sequentialJSON(t)

	clock := NewLogicalClock(0)
	c := NewCoordinator(CoordinatorOptions{Clock: clock, LeaseTTL: 30 * time.Second, HeartbeatTTL: 10 * time.Minute})
	ctx := context.Background()

	var workers []*Worker
	for _, id := range []string{"w1", "w2", "w3"} {
		pool := campaign.NewPool(campaign.Options{Workers: 1})
		defer pool.Close()
		w, err := NewWorker(WorkerOptions{ID: id, Transport: c, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Register(ctx); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}

	camp, err := c.SubmitFault(diffConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	driveFabric(t, c, clock, camp, workers, 5*time.Second)

	if st := camp.Status(false); st.State != CampaignDone {
		t.Fatalf("campaign state = %s: %+v", st.State, st)
	}
	rep := camp.Report()
	if rep == nil {
		t.Fatal("no merged report")
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fabric-merged report differs from the sequential run")
	}
}

// TestFabricChaosDifferential is the fabric's acceptance gate: three
// workers, one killed mid-cell (its completion never arrives), one with a
// 20% message-drop fault, one with a 30% message-duplication fault and a
// peer cache that corrupts every response — and the merged report must
// still be byte-identical to the sequential run, with no cell lost and no
// cell double-counted.
func TestFabricChaosDifferential(t *testing.T) {
	want := sequentialJSON(t)

	cache, err := campaign.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clock := NewLogicalClock(0)
	c := NewCoordinator(CoordinatorOptions{
		Clock:        clock,
		LeaseTTL:     30 * time.Second,
		HeartbeatTTL: 10 * time.Minute,
		Cache:        cache,
	})
	ctx := context.Background()

	// w1: duplicated messages, plus a peer cache tier that corrupts every
	// response (validation must reject it and recompute).
	// w2: killed after its first lease is granted but before the
	// completion is delivered — the lease must expire and reassign.
	// w3: 20% of its messages are dropped in transit.
	chaos1 := NewChaosTransport(c, ChaosOptions{Seed: 42, Name: "w1", DupPct: 30})
	chaos2 := NewChaosTransport(c, ChaosOptions{Seed: 42, Name: "w2", KillAfter: 3})
	chaos3 := NewChaosTransport(c, ChaosOptions{Seed: 42, Name: "w3", DropPct: 20})

	corruptPeer := NewChaosTransport(c, ChaosOptions{Seed: 42, Name: "w1-peer", CorruptPct: 100})
	tiered := NewTieredCache(nil, corruptPeer, clock, time.Second)

	var workers []*Worker
	for _, wc := range []struct {
		id        string
		transport Transport
		cache     campaign.ResultCache
	}{
		{"w1", chaos1, tiered},
		{"w2", chaos2, nil},
		{"w3", chaos3, nil},
	} {
		opts := campaign.Options{Workers: 1}
		if wc.cache != nil {
			opts.Cache = wc.cache
		}
		pool := campaign.NewPool(opts)
		defer pool.Close()
		w, err := NewWorker(WorkerOptions{ID: wc.id, Transport: wc.transport, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Register(ctx); err != nil { // w2's register is chaos op 1
			t.Fatal(err)
		}
		workers = append(workers, w)
	}

	camp, err := c.SubmitFault(diffConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	driveFabric(t, c, clock, camp, workers, 5*time.Second)

	if !chaos2.Dead() {
		t.Fatal("kill budget never tripped: the chaos schedule no longer covers worker death")
	}
	m := c.Metrics().Snapshot()
	if m.LeasesExpired < 1 {
		t.Fatalf("LeasesExpired = %d, want >= 1 (the killed worker held a lease)", m.LeasesExpired)
	}
	st := camp.Status(true)
	if st.State != CampaignDone {
		t.Fatalf("campaign state = %s: %+v", st.State, st)
	}
	if st.Done != st.Cells {
		t.Fatalf("%d of %d cells done — a cell was lost", st.Done, st.Cells)
	}
	if m.Completions != int64(st.Cells) {
		t.Fatalf("Completions = %d for %d cells — a cell was double-counted", m.Completions, st.Cells)
	}

	rep := camp.Report()
	if rep == nil {
		t.Fatal("no merged report")
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chaos-fabric merged report differs from the sequential run")
	}
}

// nullTransport accepts everything; it exists to observe chaos schedules.
type nullTransport struct{}

func (nullTransport) Register(context.Context, WorkerInfo) (*RegisterReply, error) {
	return &RegisterReply{}, nil
}
func (nullTransport) Heartbeat(context.Context, string) error  { return nil }
func (nullTransport) Deregister(context.Context, string) error { return nil }
func (nullTransport) Lease(context.Context, string) (*Lease, error) {
	return nil, nil
}
func (nullTransport) Complete(context.Context, CompleteRequest) error { return nil }
func (nullTransport) FetchResult(context.Context, string) (*campaign.Result, error) {
	return nil, nil
}

// chaosSchedule records which of n heartbeats a transport drops.
func chaosSchedule(seed uint64, name string, n int) []bool {
	ct := NewChaosTransport(nullTransport{}, ChaosOptions{Seed: seed, Name: name, DropPct: 30})
	out := make([]bool, n)
	for i := range out {
		out[i] = errors.Is(ct.Heartbeat(context.Background(), "w"), ErrChaosDropped)
	}
	return out
}

// TestChaosDeterminism: equal (seed, name) replays the exact fault
// schedule; different names fault independently.
func TestChaosDeterminism(t *testing.T) {
	a := chaosSchedule(9, "w1", 200)
	b := chaosSchedule(9, "w1", 200)
	other := chaosSchedule(9, "w2", 200)
	same, diff, dropped := true, false, 0
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != other[i] {
			diff = true
		}
		if a[i] {
			dropped++
		}
	}
	if !same {
		t.Fatal("same (seed, name) produced different chaos schedules")
	}
	if !diff {
		t.Fatal("different names produced identical chaos schedules")
	}
	if dropped == 0 || dropped == len(a) {
		t.Fatalf("drop schedule degenerate: %d of %d dropped", dropped, len(a))
	}
}

// TestChaosKillBudget: after KillAfter calls every operation fails with
// ErrChaosKilled, permanently.
func TestChaosKillBudget(t *testing.T) {
	ct := NewChaosTransport(nullTransport{}, ChaosOptions{KillAfter: 2})
	ctx := context.Background()
	if err := ct.Heartbeat(ctx, "w"); err != nil {
		t.Fatalf("op 1 failed: %v", err)
	}
	if err := ct.Heartbeat(ctx, "w"); err != nil {
		t.Fatalf("op 2 failed: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := ct.Heartbeat(ctx, "w"); !errors.Is(err, ErrChaosKilled) {
			t.Fatalf("op after kill budget = %v, want ErrChaosKilled", err)
		}
	}
	if !ct.Dead() {
		t.Fatal("Dead() = false after the kill budget tripped")
	}
}

// TestChaosDelay: a delayed message is withheld until the injected clock
// advances past the delay.
func TestChaosDelay(t *testing.T) {
	clock := NewLogicalClock(0)
	ct := NewChaosTransport(nullTransport{}, ChaosOptions{
		Clock:    clock,
		DelayPct: 100,
		Delay:    50 * time.Millisecond,
	})
	done := make(chan error, 1)
	go func() { done <- ct.Heartbeat(context.Background(), "w") }()
	select {
	case err := <-done:
		t.Fatalf("delayed call returned before the clock advanced: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	clock.Advance(50 * time.Millisecond)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delayed call never completed after Advance")
	}
}
