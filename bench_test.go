// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out. Each benchmark reports the paper's metric via
// b.ReportMetric so `go test -bench=. -benchmem` regenerates the rows and
// series the paper reports (scaled; see EXPERIMENTS.md for the
// paper-vs-measured record).
package chex86

import (
	"fmt"
	"testing"

	"chex86/internal/cvedata"
	"chex86/internal/decode"
	"chex86/internal/experiments"
	"chex86/internal/memprof"
	"chex86/internal/pipeline"
	"chex86/internal/security"
	"chex86/internal/workload"
)

// benchOpts keeps the full -bench=. sweep to a few minutes.
func benchOpts() experiments.Options {
	return experiments.Options{Scale: 0.25, MaxInsts: 200_000}
}

func benchRun(b *testing.B, p *workload.Profile, cfg pipeline.Config) *pipeline.Result {
	b.Helper()
	o := benchOpts()
	prog, err := p.Build(o.Scale)
	if err != nil {
		b.Fatal(err)
	}
	cfg.WarmupInsts = p.SetupInsts()
	cfg.MaxInsts = o.MaxInsts + cfg.WarmupInsts
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

// BenchmarkFig1CVEData regenerates the Figure 1 dataset.
func BenchmarkFig1CVEData(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(cvedata.Format())
	}
	if n == 0 {
		b.Fatal("empty dataset")
	}
	last := cvedata.Data()[len(cvedata.Data())-1]
	b.ReportMetric(last.MemorySafetyShare(), "memsafety-share-2018-%")
}

// BenchmarkFig3AllocBehavior profiles allocation behavior (Figure 3) for a
// representative benchmark per iteration.
func BenchmarkFig3AllocBehavior(b *testing.B) {
	p := workload.ByName("xalancbmk")
	var st *memprof.Stats
	for i := 0; i < b.N; i++ {
		prog, err := p.Build(0.25)
		if err != nil {
			b.Fatal(err)
		}
		st, err = memprof.Profile(prog, 1, 50_000, 300_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.TotalAllocs), "total-allocs")
	b.ReportMetric(float64(st.MaxLive), "max-live")
	b.ReportMetric(st.AvgInUse, "in-use-per-interval")
}

// BenchmarkTable1RuleChecker measures the hardware checker validating the
// rule database (Table I) over a pointer-intensive workload.
func BenchmarkTable1RuleChecker(b *testing.B) {
	p := workload.ByName("canneal")
	var res *pipeline.Result
	for i := 0; i < b.N; i++ {
		cfg := pipeline.DefaultConfig()
		cfg.EnableChecker = true
		res = benchRun(b, p, cfg)
	}
	if res.Checker.Validations == 0 {
		b.Fatal("checker validated nothing")
	}
	b.ReportMetric(100*(1-res.Checker.MismatchRate()), "rule-agreement-%")
}

// BenchmarkTable2Patterns classifies the temporal pointer access patterns
// (Table II) observed on a batch-striding workload.
func BenchmarkTable2Patterns(b *testing.B) {
	o := benchOpts()
	o.Benches = []string{"perlbench"}
	var rs []experiments.Table2Result
	var err error
	for i := 0; i < b.N; i++ {
		rs, err = experiments.RunTable2(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	total := 0
	for _, n := range rs[0].Summary {
		total += n
	}
	b.ReportMetric(float64(total), "reload-PCs")
}

// BenchmarkTable4Comparison measures the CHEx86 row of Table IV (SPEC
// performance and storage overheads).
func BenchmarkTable4Comparison(b *testing.B) {
	o := benchOpts()
	o.Benches = []string{"perlbench", "mcf", "lbm"}
	var rows []experiments.Table4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunTable4(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	if rows[len(rows)-1].Proposal != "CHEx86" {
		b.Fatal("measured row missing")
	}
}

// BenchmarkFig6Performance runs every benchmark under every protection
// variant (Figure 6, top and bottom). Sub-benchmarks report the normalized
// performance and micro-op expansion per cell.
func BenchmarkFig6Performance(b *testing.B) {
	for _, p := range workload.Catalog() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var base *pipeline.Result
			for v := decode.Variant(0); v < decode.NumVariants; v++ {
				v := v
				b.Run(fmt.Sprintf("%d", v), func(b *testing.B) {
					var res *pipeline.Result
					for i := 0; i < b.N; i++ {
						cfg := pipeline.DefaultConfig()
						cfg.Variant = v
						res = benchRun(b, p, cfg)
					}
					if v == decode.VariantInsecure {
						base = res
					} else if base != nil {
						b.ReportMetric(float64(base.Cycles)/float64(res.Cycles), "norm-perf")
					}
					b.ReportMetric(res.UopExpansion(), "uop-expansion")
				})
			}
		})
	}
}

// BenchmarkFig7CacheMissRates sweeps the capability cache (64 vs 128) and
// alias cache (256 vs 512) sizes.
func BenchmarkFig7CacheMissRates(b *testing.B) {
	p := workload.ByName("xalancbmk")
	for _, cc := range []int{64, 128} {
		cc := cc
		b.Run(fmt.Sprintf("capcache-%d", cc), func(b *testing.B) {
			var res *pipeline.Result
			for i := 0; i < b.N; i++ {
				cfg := pipeline.DefaultConfig()
				cfg.CapCacheEntries = cc
				res = benchRun(b, p, cfg)
			}
			b.ReportMetric(100*res.CapCache.MissRate(), "cap-miss-%")
		})
	}
	for _, ac := range []int{256, 512} {
		ac := ac
		b.Run(fmt.Sprintf("aliascache-%d", ac), func(b *testing.B) {
			var res *pipeline.Result
			for i := 0; i < b.N; i++ {
				cfg := pipeline.DefaultConfig()
				cfg.AliasCacheEntries = ac
				res = benchRun(b, p, cfg)
			}
			b.ReportMetric(100*res.AliasCache.MissRate(), "alias-miss-%")
		})
	}
}

// BenchmarkFig8Misprediction sweeps the pointer-reload predictor size and
// reports misprediction rate and squash time.
func BenchmarkFig8Misprediction(b *testing.B) {
	p := workload.ByName("perlbench")
	for _, entries := range []int{512, 1024, 2048} {
		entries := entries
		b.Run(fmt.Sprintf("predictor-%d", entries), func(b *testing.B) {
			var res *pipeline.Result
			for i := 0; i < b.N; i++ {
				cfg := pipeline.DefaultConfig()
				cfg.PredictorEntries = entries
				res = benchRun(b, p, cfg)
			}
			b.ReportMetric(100*res.Predictor.MispredictionRate(), "mispredict-%")
			b.ReportMetric(res.SquashPct(), "squash-%")
		})
	}
}

// BenchmarkFig9MemoryOverhead reports storage and bandwidth impact.
func BenchmarkFig9MemoryOverhead(b *testing.B) {
	p := workload.ByName("xalancbmk")
	var base, chex *pipeline.Result
	for i := 0; i < b.N; i++ {
		cfg := pipeline.DefaultConfig()
		cfg.Variant = decode.VariantInsecure
		base = benchRun(b, p, cfg)
		chex = benchRun(b, p, pipeline.DefaultConfig())
	}
	b.ReportMetric(float64(chex.UserRSS+chex.ShadowRSS)/float64(base.UserRSS), "rss-ratio")
	b.ReportMetric(chex.BandwidthMBs()/base.BandwidthMBs(), "bandwidth-ratio")
}

// BenchmarkSecuritySuites runs the full security evaluation (Section
// VII-A) per iteration.
func BenchmarkSecuritySuites(b *testing.B) {
	var correct, total int
	for i := 0; i < b.N; i++ {
		correct, total = 0, 0
		for _, e := range security.All() {
			out := security.Run(e, decode.VariantMicrocodePrediction)
			total++
			if out.Correct() {
				correct++
			}
		}
	}
	if correct != total {
		b.Fatalf("security regression: %d/%d", correct, total)
	}
	b.ReportMetric(float64(correct), "exploits-handled")
}

// --- Ablation benches (design choices called out in DESIGN.md §5). ---

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

// BenchmarkWatchdogComparison reproduces the Section VII-C measurement:
// Watchdog-style conservative instrumentation of every 64-bit load/store
// vs CHEx86's prediction-driven scheme.
func BenchmarkWatchdogComparison(b *testing.B) {
	o := benchOpts()
	o.Benches = []string{"xalancbmk"}
	var rows []experiments.WatchdogRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunWatchdog(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].WatchdogSlowdownPct, "watchdog-slowdown-%")
	b.ReportMetric(rows[0].CHExSlowdownPct, "chex86-slowdown-%")
	b.ReportMetric(rows[0].MemRefRatio, "memref-ratio")
}

// BenchmarkContextSweep measures the context-sensitivity design space
// (§VII-D): overhead as a function of the covered-text fraction.
func BenchmarkContextSweep(b *testing.B) {
	o := benchOpts()
	var rows []experiments.ContextRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunContextSweep("xalancbmk", o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].SlowdownPct, "slowdown-0pct-%")
	b.ReportMetric(rows[len(rows)-1].SlowdownPct, "slowdown-100pct-%")
}

// BenchmarkStructureSweep traces the capability-cache sizing curve the
// 64-entry design point of Table III sits on (§VII-B knee audit).
func BenchmarkStructureSweep(b *testing.B) {
	o := benchOpts()
	var rows []experiments.SweepRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunSweep("xalancbmk", experiments.SweepCapCache, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].MissPct, "miss-16ent-%")
	b.ReportMetric(rows[2].MissPct, "miss-64ent-%")
	b.ReportMetric(rows[len(rows)-1].MissPct, "miss-256ent-%")
}
