// Command chexd is the coordinator of the distributed campaign fabric
// (internal/fabric) and the one way into a campaign: submit a bench or
// fault campaign, watch it, and read its merged report. chexworker nodes
// register here, lease campaign cells under time-bounded leases, and feed
// results back into the shared content-addressed store; with no worker
// registered, the coordinator runs cells on its own campaign pool.
//
// Usage:
//
//	chexd                                  # listen on :8086, cache in .chexcampaign
//	chexd -addr 127.0.0.1:9000 -cache-dir /var/cache/chex -workers 8
//	chexd -lease-ttl 30s -heartbeat-ttl 10s -max-queue 1024
//
// API (see README.md for curl examples):
//
//	POST /api/v1/fabric/campaign         submit a campaign (429 + Retry-After under backpressure)
//	GET  /api/v1/fabric/campaigns        list campaigns
//	GET  /api/v1/fabric/campaigns/{id}   campaign status (+results when done); ?wait=1 blocks, ?detail=1 per-cell
//	GET  /api/v1/fabric/campaigns/{id}/report  merged fault report (byte-identical to a sequential run)
//	GET  /api/v1/fabric/workers          registered worker nodes
//	GET  /fabric/v1/cache/{key}          cached result by content address
//	POST /fabric/v1/...                  worker wire protocol (register/heartbeat/deregister/lease/complete)
//	GET  /metrics                        pool + fabric counters (text exposition format)
//	GET  /healthz                        liveness
//
// The server carries read/write/idle timeouts and shuts down gracefully:
// SIGINT/SIGTERM stops accepting connections, drains in-flight HTTP
// requests and campaigns for -drain, then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chex86/internal/campaign"
	"chex86/internal/fabric"
)

// wallClock adapts the host clock to fabric.Clock. It lives here in the
// CLI — internal/fabric never reads the wall clock, so the chexvet
// determinism gate holds there with zero waivers.
type wallClock struct{}

func (wallClock) Now() int64 { return time.Now().UnixNano() } //determinism:ok — service-level wall clock

func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func main() {
	addr := flag.String("addr", ":8086", "listen address")
	cacheDir := flag.String("cache-dir", ".chexcampaign", "content-addressed result cache directory (empty disables caching)")
	workers := flag.Int("workers", 0, "local pool workers for cells run with no chexworker registered (0 = GOMAXPROCS)")
	scale := flag.Float64("scale", 1.0, "default workload scale for requests that omit one")
	insts := flag.Uint64("insts", 0, "default per-run macro-instruction budget (0 = completion)")
	maxCycles := flag.Uint64("max-cycles", 0, "default per-run simulated-cycle budget (0 = none)")
	leaseTTL := flag.Duration("lease-ttl", 60*time.Second, "fabric cell lease TTL before reassignment")
	heartbeatTTL := flag.Duration("heartbeat-ttl", 15*time.Second, "fabric worker heartbeat TTL before deregistration")
	maxQueue := flag.Int("max-queue", 4096, "fabric admission control: max pending cells before 429")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "HTTP server read timeout")
	writeTimeout := flag.Duration("write-timeout", 10*time.Minute, "HTTP server write timeout (bounds long waits)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "HTTP server idle connection timeout")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown budget for in-flight requests and campaigns")
	flag.Parse()

	var cache *campaign.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = campaign.OpenCache(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "chexd:", err)
			os.Exit(1)
		}
	}

	srv := newServer(cache, *workers, fabric.CoordinatorOptions{
		Clock:        wallClock{},
		LeaseTTL:     *leaseTTL,
		HeartbeatTTL: *heartbeatTTL,
		MaxQueue:     *maxQueue,
	})
	defer srv.pool.Close()
	srv.defScale, srv.defMaxInsts, srv.defMaxCycles = *scale, *insts, *maxCycles

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic fabric tick: reap silent workers and expired leases even
	// when no traffic arrives to do it reactively.
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				srv.coord.Tick()
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "chexd: listening on %s (workers=%d, cache=%s)\n",
		*addr, srv.pool.Workers(), *cacheDir)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "chexd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "chexd: shutting down (draining up to %v)\n", *drain)
		deadline := time.Now().Add(*drain) //determinism:ok — CLI shutdown budget
		sctx, cancel := context.WithDeadline(context.Background(), deadline)
		if err := httpSrv.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "chexd: shutdown:", err)
		}
		cancel()
		drainCampaigns(srv.coord, deadline)
	}
}

// drainCampaigns waits for every submitted campaign to finish, up to the
// deadline, so SIGTERM does not abandon cells mid-simulation.
func drainCampaigns(coord *fabric.Coordinator, deadline time.Time) {
	dctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	for _, camp := range coord.Campaigns() {
		if camp.Wait(dctx) != nil {
			fmt.Fprintln(os.Stderr, "chexd: drain budget exhausted; abandoning remaining campaigns")
			return
		}
	}
}
