// Package hostperf measures and gates the simulator's host-side
// throughput: thousands of simulated instructions retired per wall-clock
// second (Kinst/s) and heap objects allocated per simulated instruction.
//
// Simulated results are deterministic; host throughput is not. The package
// therefore never touches the wall clock itself — every entry point takes
// an injected Clock, keeping internal/ free of determinism-lint waivers
// and making the measurement logic testable with a fake clock. Only
// cmd/chexperf (and other cmd/ binaries) bind the real clock.
//
// Cross-host comparability comes from Calibrate: a fixed CPU-bound kernel
// whose score scales with single-core host speed. Gating compares
// host-normalized throughput (Kinst/s divided by the host score measured
// in the same process), so a committed baseline from one machine remains
// meaningful on another within the tolerance band.
package hostperf

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"

	"chex86/internal/decode"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// Clock returns monotonic nanoseconds. cmd/ binaries bind it to the wall
// clock; tests bind a counter.
type Clock func() int64

// Sample is one (workload, variant) throughput measurement.
type Sample struct {
	Workload string  `json:"workload"`
	Variant  string  `json:"variant"`
	Insts    uint64  `json:"insts"`    // simulated instructions retired
	WallNS   int64   `json:"wall_ns"`  // host wall time for the measured run
	Allocs   uint64  `json:"allocs"`   // heap objects allocated during the run
	HitRate  float64 `json:"hit_rate"` // μop translation cache hit rate
}

// KinstPerSec returns thousands of simulated instructions per host second.
func (s Sample) KinstPerSec() float64 {
	if s.WallNS <= 0 {
		return 0
	}
	return float64(s.Insts) / (float64(s.WallNS) / 1e9) / 1e3
}

// AllocsPerInst returns heap objects allocated per simulated instruction.
func (s Sample) AllocsPerInst() float64 {
	if s.Insts == 0 {
		return 0
	}
	return float64(s.Allocs) / float64(s.Insts)
}

// Report is a full measurement run: a host-speed score plus one sample per
// measured (workload, variant) pair. The committed bench_baseline.json is
// a Report.
type Report struct {
	HostScore float64  `json:"host_score"` // Calibrate result on the measuring host
	Samples   []Sample `json:"samples"`
}

// MeasureOpts configures one Measure call.
type MeasureOpts struct {
	Scale    float64 // workload scale factor (0 → 0.25)
	MaxInsts uint64  // instructions to retire after warmup (0 → 200k)
}

// Measure runs one (workload, variant) pair and samples throughput and
// allocation counts. The warmup phase (the workload's setup instructions)
// executes before the clock starts so steady-state throughput is measured,
// matching the simulator's own warmup-windowed statistics.
func Measure(clock Clock, p *workload.Profile, v decode.Variant, opts MeasureOpts) (Sample, error) {
	if opts.Scale == 0 {
		opts.Scale = 0.25
	}
	if opts.MaxInsts == 0 {
		opts.MaxInsts = 200_000
	}
	prog, err := p.Build(opts.Scale)
	if err != nil {
		return Sample{}, fmt.Errorf("%s: build: %w", p.Name, err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.Variant = v
	cfg.WarmupInsts = p.SetupInsts()
	cfg.MaxInsts = opts.MaxInsts + cfg.WarmupInsts
	harts := 1
	if p.Threads > 0 {
		harts = p.Threads
	}
	sim, err := pipeline.NewSim(prog, cfg, harts)
	if err != nil {
		return Sample{}, fmt.Errorf("%s/%v: %w", p.Name, v, err)
	}

	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := clock()
	res, err := sim.Run()
	wall := clock() - start
	runtime.ReadMemStats(&msAfter)
	if err != nil {
		return Sample{}, fmt.Errorf("%s/%v: run: %w", p.Name, v, err)
	}
	return Sample{
		Workload: p.Name,
		Variant:  v.ShortName(),
		Insts:    res.MacroInsts,
		WallNS:   wall,
		Allocs:   msAfter.Mallocs - msBefore.Mallocs,
		HitRate:  sim.UopCacheStats().HitRate(),
	}, nil
}

// calibrateIters sizes the calibration kernel: large enough to average
// over scheduler noise, small enough to finish in tens of milliseconds.
const calibrateIters = 1 << 22

// calibrateRounds is how many times the kernel runs; the best round is
// the score. A single round is hostage to scheduler preemption — observed
// round-to-round swings exceed 30% on loaded hosts — while the max over
// several rounds converges on the machine's true single-core speed.
const calibrateRounds = 5

// Calibrate scores the host's single-core speed with a fixed CPU-bound
// kernel (xorshift PRNG feeding a dependent walk over a cache-resident
// table — the same mix of ALU, branch, and L1 load work the simulator's
// hot loop performs). The score is kernel iterations per microsecond from
// the fastest of several rounds; normalized throughput is Kinst/s divided
// by this score.
func Calibrate(clock Clock) float64 {
	var table [4096]uint64
	for i := range table {
		table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	best := 0.0
	for r := 0; r < calibrateRounds; r++ {
		x := uint64(0x243F6A8885A308D3)
		var acc uint64
		start := clock()
		for i := 0; i < calibrateIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			acc += table[(x+acc)&4095]
		}
		wall := clock() - start
		runtime.KeepAlive(acc)
		if wall > 0 {
			if score := float64(calibrateIters) / (float64(wall) / 1e3); score > best {
				best = score
			}
		}
	}
	return best
}

// Problem is one gate failure found by Compare.
type Problem struct {
	Workload string
	Variant  string
	Msg      string
}

func (p Problem) String() string {
	return fmt.Sprintf("%s/%s: %s", p.Workload, p.Variant, p.Msg)
}

// allocSlack absorbs measurement noise in allocs/instruction: one-time
// costs (page materialization, map growth) amortize differently across
// runs, so an increase below this threshold is not a regression.
const allocSlack = 0.02

// Compare gates current against baseline: a host-normalized Kinst/s drop
// beyond tolerance (e.g. 0.20 for 20%) or any material allocs/instruction
// increase is a Problem. Samples present in only one report are a hard
// failure in both directions — a benchmark key unknown to the baseline
// means the baseline is stale, and a silently vanished benchmark must
// not pass the gate. allowNew waives only the first direction (chexperf
// -allow-new), for the turn where a new benchmark lands before its
// baseline is regenerated.
func Compare(baseline, current *Report, tolerance float64, allowNew bool) []Problem {
	var problems []Problem
	if baseline.HostScore <= 0 || current.HostScore <= 0 {
		return []Problem{{Msg: fmt.Sprintf("host score missing (baseline %.1f, current %.1f) — cannot normalize", baseline.HostScore, current.HostScore)}}
	}
	base := map[string]Sample{}
	for _, s := range baseline.Samples {
		base[s.Workload+"/"+s.Variant] = s
	}
	seen := map[string]bool{}
	for _, cur := range current.Samples {
		key := cur.Workload + "/" + cur.Variant
		seen[key] = true
		b, ok := base[key]
		if !ok {
			if !allowNew {
				problems = append(problems, Problem{cur.Workload, cur.Variant,
					"not in baseline — regenerate bench_baseline.json (or gate with -allow-new)"})
			}
			continue
		}
		baseNorm := b.KinstPerSec() / baseline.HostScore
		curNorm := cur.KinstPerSec() / current.HostScore
		if baseNorm > 0 && curNorm < baseNorm*(1-tolerance) {
			problems = append(problems, Problem{cur.Workload, cur.Variant,
				fmt.Sprintf("normalized throughput %.3f is %.0f%% below baseline %.3f (tolerance %.0f%%)",
					curNorm, (1-curNorm/baseNorm)*100, baseNorm, tolerance*100)})
		}
		if cur.AllocsPerInst() > b.AllocsPerInst()+allocSlack {
			problems = append(problems, Problem{cur.Workload, cur.Variant,
				fmt.Sprintf("allocs/instruction rose %.4f → %.4f", b.AllocsPerInst(), cur.AllocsPerInst())})
		}
	}
	for key := range base {
		if !seen[key] {
			s := base[key]
			problems = append(problems, Problem{s.Workload, s.Variant, "present in baseline but not measured"})
		}
	}
	sort.Slice(problems, func(i, j int) bool {
		if problems[i].Workload != problems[j].Workload {
			return problems[i].Workload < problems[j].Workload
		}
		return problems[i].Variant < problems[j].Variant
	})
	return problems
}

// Format renders a report as the human-readable table chexperf and
// chexbench print.
func Format(r *Report) string {
	out := fmt.Sprintf("host score: %.1f kernel-iters/µs\n", r.HostScore)
	out += fmt.Sprintf("%-14s %-12s %12s %12s %10s %8s\n", "workload", "variant", "Kinst/s", "norm", "allocs/in", "μop-hit")
	for _, s := range r.Samples {
		norm := 0.0
		if r.HostScore > 0 {
			norm = s.KinstPerSec() / r.HostScore
		}
		out += fmt.Sprintf("%-14s %-12s %12.1f %12.4f %10.4f %7.1f%%\n",
			s.Workload, s.Variant, s.KinstPerSec(), norm, s.AllocsPerInst(), s.HitRate*100)
	}
	return out
}

// MarshalReport renders a Report as the JSON artifact format (committed
// as bench_baseline.json and uploaded as BENCH_*.json in CI).
func MarshalReport(r *Report) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// UnmarshalReport parses a report artifact.
func UnmarshalReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
