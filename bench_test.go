// Ablation benchmarks for the design choices DESIGN.md §5 calls out. Each
// runs canneal with the default machine and with one mechanism removed,
// and reports the cycle ratio via b.ReportMetric, so
// `go test -run '^$' -bench Ablation .` regenerates EXPERIMENTS.md's
// ablation table. The paper's tables and figures come from chexbench.
package chex86

import (
	"testing"

	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// ablationScale and ablationInsts keep the five benchmarks to seconds.
const (
	ablationScale = 0.25
	ablationInsts = 200_000
)

func benchRun(b *testing.B, p *workload.Profile, cfg pipeline.Config) *pipeline.Result {
	b.Helper()
	prog, err := p.Build(ablationScale)
	if err != nil {
		b.Fatal(err)
	}
	cfg.WarmupInsts = p.SetupInsts()
	cfg.MaxInsts = ablationInsts + cfg.WarmupInsts
	harts := p.Threads
	if harts == 0 {
		harts = 1
	}
	res, err := pipeline.New(prog, cfg, harts).Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func benchAblation(b *testing.B, mod func(*pipeline.Config)) {
	p := workload.ByName("canneal")
	var on, off *pipeline.Result
	for i := 0; i < b.N; i++ {
		on = benchRun(b, p, pipeline.DefaultConfig())
		cfg := pipeline.DefaultConfig()
		mod(&cfg)
		off = benchRun(b, p, cfg)
	}
	b.ReportMetric(float64(off.Cycles)/float64(on.Cycles), "ablated-vs-default")
}

// BenchmarkAblationShadowLatency removes shadow capability-table latency:
// the cost of capability-cache misses going to memory.
func BenchmarkAblationShadowLatency(b *testing.B) {
	benchAblation(b, func(c *pipeline.Config) { c.IdealShadowLatency = true })
}

// BenchmarkAblationAliasWalks removes shadow alias-table walks: the cost
// of misprediction detection on alias-cache misses.
func BenchmarkAblationAliasWalks(b *testing.B) {
	benchAblation(b, func(c *pipeline.Config) { c.NoAliasWalks = true })
}

// BenchmarkAblationPrefetch disables the streaming prefetcher (a baseline
// machine property the relative results depend on).
func BenchmarkAblationPrefetch(b *testing.B) {
	benchAblation(b, func(c *pipeline.Config) { c.NoPrefetch = true })
}

// BenchmarkAblationWalkerCache removes the dedicated alias-walker cache.
func BenchmarkAblationWalkerCache(b *testing.B) {
	benchAblation(b, func(c *pipeline.Config) { c.ShadowCacheKB = 0 })
}

// BenchmarkAblationContextSensitive compares surgical (no regions
// configured, so zero checks) against always-on injection — the upper
// bound of the context-sensitivity win.
func BenchmarkAblationContextSensitive(b *testing.B) {
	benchAblation(b, func(c *pipeline.Config) { c.Context = pipeline.DefaultConfig().Context; c.Context.All = false })
}
