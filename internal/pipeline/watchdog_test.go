package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"

	"chex86/internal/asm"
	"chex86/internal/decode"
)

// livelockProg is the canonical hung guest: an unconditional jump to
// itself. The emulator never drains it, so only the watchdog can end the
// simulation.
func livelockProg(t *testing.T) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	b.Label("spin")
	b.Jmp("spin")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestWatchdogKillsLivelock: under every protection variant, the
// cycle-budget watchdog converts a jmp-to-self livelock into a structured
// ErrCycleLimit carrying a pipeline snapshot, within the configured bound.
func TestWatchdogKillsLivelock(t *testing.T) {
	prog := livelockProg(t)
	const budget = 200000
	for v := decode.Variant(0); v < decode.NumVariants; v++ {
		cfg := DefaultConfig()
		cfg.Variant = v
		cfg.MaxCycles = budget
		sim, err := NewSim(prog, cfg, 1)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		_, err = sim.Run()
		var se *SimError
		if !errors.As(err, &se) || se.Kind != ErrCycleLimit {
			t.Fatalf("%v: want ErrCycleLimit, got %v", v, err)
		}
		if se.Snapshot == nil || len(se.Snapshot.Harts) != 1 {
			t.Fatalf("%v: watchdog error must carry a per-hart snapshot", v)
		}
		if se.Snapshot.Harts[0].LastRIP == 0 {
			t.Fatalf("%v: snapshot must record the last fetched RIP", v)
		}
		// The watchdog fires between scheduling rounds, so overshoot is
		// bounded by one macro-op's worth of cycles.
		if got := sim.CurrentCycle(); got > 2*budget {
			t.Fatalf("%v: watchdog fired at cycle %d, far past the %d budget", v, got, budget)
		}
	}
}

// TestStallWatchdog: a front-end that runs away from the commit point
// (no commit for StallCycles) is reported as ErrHang. The condition cannot
// arise organically in the trace-driven model, so the gap is staged
// directly.
func TestStallWatchdog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StallCycles = 1000
	sim, err := NewSim(livelockProg(t), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Step(1); err != nil {
		t.Fatal(err)
	}
	c := sim.cores[0]
	c.fetchAt = c.lastCommit + cfg.StallCycles + 1
	err = sim.checkWatchdog()
	var se *SimError
	if !errors.As(err, &se) || se.Kind != ErrHang {
		t.Fatalf("want ErrHang, got %v", err)
	}
	if se.Snapshot == nil {
		t.Fatal("hang error must carry a snapshot")
	}
	// Inside the stall window the watchdog stays quiet.
	c.fetchAt = c.lastCommit + cfg.StallCycles
	if err := sim.checkWatchdog(); err != nil {
		t.Fatalf("within the window: unexpected %v", err)
	}
}

// countedCtx reports cancellation only after Err has been consulted limit
// times, which lets the test count how many scheduling rounds RunContext
// executes after the cancellation point.
type countedCtx struct {
	context.Context
	calls, limit int
}

func (c *countedCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestRunContextCancelStopsWithinOneRound: once the context reports
// cancellation, RunContext must stop before executing another scheduling
// round.
func TestRunContextCancelStopsWithinOneRound(t *testing.T) {
	cfg := DefaultConfig()
	sim, err := NewSim(livelockProg(t), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countedCtx{Context: context.Background(), limit: 5}
	res, err := sim.RunContext(ctx)
	var se *SimError
	if !errors.As(err, &se) || se.Kind != ErrCanceled {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if res == nil {
		t.Fatal("cancellation must still return the partial result")
	}
	// One macro-op per core per round: with 5 clean Err() checks, at most
	// 5 rounds ran before the cancellation was observed.
	if got := sim.M.TotalInsts(); got > uint64(ctx.limit) {
		t.Fatalf("simulation ran %d macro-ops after a %d-round cancellation window", got, ctx.limit)
	}
}

// TestRunContextDeadline: a livelocked guest under a 100ms wall-clock
// deadline stops promptly with ErrDeadline.
func TestRunContextDeadline(t *testing.T) {
	cfg := DefaultConfig()
	sim, err := NewSim(livelockProg(t), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sim.RunContext(ctx)
	elapsed := time.Since(start)
	var se *SimError
	if !errors.As(err, &se) || se.Kind != ErrDeadline {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("ErrDeadline must unwrap to context.DeadlineExceeded")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline honored only after %v", elapsed)
	}
}

// TestNewSimConfigError: invalid configurations surface as ErrConfig from
// NewSim, never as a constructor panic, and the legacy New wrapper panics
// on them.
func TestNewSimConfigError(t *testing.T) {
	prog := livelockProg(t)
	cfg := DefaultConfig()
	if _, err := NewSim(prog, cfg, 0); !isConfigErr(err) {
		t.Fatalf("zero harts: want ErrConfig, got %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"line size not a power of two", func(c *Config) { c.LineSize = 48 }},
		{"line size below 8 bytes", func(c *Config) { c.LineSize = 4 }},
		{"empty multiplier pool", func(c *Config) { c.IntMult = 0 }},
		{"ALU pool above 255", func(c *Config) { c.IntALU = 256 }},
		{"negative load ports", func(c *Config) { c.LoadPorts = -1 }},
		{"issue width above 255", func(c *Config) { c.IssueWidth = 300 }},
		{"commit width above 255", func(c *Config) { c.CommitWidth = 256 }},
		{"shadow cache lines not divisible by its ways", func(c *Config) { c.ShadowCacheKB, c.LineSize = 1, 256 }},
		{"negative shadow cache", func(c *Config) { c.ShadowCacheKB = -1 }},
	} {
		bad := DefaultConfig()
		tc.edit(&bad)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: NewSim panicked: %v", tc.name, r)
				}
			}()
			if _, err := NewSim(prog, bad, 1); !isConfigErr(err) {
				t.Fatalf("%s: want ErrConfig, got %v", tc.name, err)
			}
		}()
	}
	if _, err := NewSim(nil, cfg, 1); !isConfigErr(err) {
		t.Fatalf("nil program: want ErrConfig, got %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New must panic on a configuration error")
		}
	}()
	New(prog, cfg, 0)
}

func isConfigErr(err error) bool {
	var se *SimError
	return errors.As(err, &se) && se.Kind == ErrConfig
}
