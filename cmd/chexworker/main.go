// Command chexworker is a fabric execution node: it registers with a
// chexd coordinator, heartbeats, leases campaign cells, executes them on
// a local campaign pool behind the two-tier content-addressed cache
// (local disk, then the coordinator's store, then recompute), and
// reports completions.
//
// Usage:
//
//	chexworker -coordinator http://127.0.0.1:8086
//	chexworker -coordinator http://coord:8086 -id node-a -concurrency 4 \
//	    -cache-dir /var/cache/chexworker
//
// Workers are disposable by design: kill one mid-cell and its leases
// expire at the coordinator, which reassigns the cells to surviving
// workers (or runs them locally when none remain). SIGINT/SIGTERM
// deregisters gracefully so the coordinator requeues without waiting out
// the lease TTL.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
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
	coordURL := flag.String("coordinator", "http://127.0.0.1:8086", "coordinator base URL")
	id := flag.String("id", "", "worker identity (default: host:pid)")
	cacheDir := flag.String("cache-dir", "", "local result cache directory (empty disables the local tier)")
	concurrency := flag.Int("concurrency", 1, "cells to lease and execute in parallel")
	poll := flag.Duration("poll", 500*time.Millisecond, "idle sleep between lease attempts")
	peerTimeout := flag.Duration("peer-timeout", 2*time.Second, "peer cache fetch timeout before falling back to recompute")
	flag.Parse()

	if *id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}

	var local *campaign.Cache
	if *cacheDir != "" {
		var err error
		if local, err = campaign.OpenCache(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "chexworker:", err)
			os.Exit(1)
		}
	}

	client := fabric.NewClient(*coordURL, nil)
	tiered := fabric.NewTieredCache(local, client, wallClock{}, *peerTimeout)

	// Each of the -concurrency lease loops submits one cell and waits for
	// it, so the pool never holds more cells than that.
	if *concurrency < 1 {
		*concurrency = 1
	}
	pool := campaign.NewPool(campaign.Options{Workers: *concurrency, Cache: tiered})
	defer pool.Close()

	w, err := fabric.NewWorker(fabric.WorkerOptions{
		ID:           *id,
		Addr:         *coordURL,
		Transport:    client,
		Pool:         pool,
		Clock:        wallClock{},
		PollInterval: *poll,
		Concurrency:  *concurrency,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chexworker:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "chexworker: %s serving %s (concurrency=%d, cache=%q)\n",
		*id, *coordURL, *concurrency, *cacheDir)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "chexworker:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "chexworker: shut down")
}
