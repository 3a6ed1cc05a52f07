package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"chex86/internal/decode"
	"chex86/internal/elide"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// TestUopCacheElisionDifferential is the μop-cache byte-identity gate
// with proof-carrying elision live (DESIGN.md §11/§12): across every
// catalog workload under the always-on and prediction variants, with the
// checker-verified elision map installed, the full Result — every
// counter and the violation report — must be byte-identical with the
// decoded-μop cache on and off. Elision probes run against expansions
// served zero-copy from the cache, so this is the check that a cached
// expansion keys elision exactly as a fresh decode does. To stay
// non-vacuous the cache must hit on every run, and elision must suppress
// checks on at least 10 of the 14 workloads under prediction.
func TestUopCacheElisionDifferential(t *testing.T) {
	o := Options{Scale: 0.1, MaxInsts: 50_000}
	ctx := context.Background()
	variants := []decode.Variant{decode.VariantMicrocodeAlwaysOn, decode.VariantMicrocodePrediction}

	eliding := 0
	all := workload.Catalog()
	for _, p := range all {
		t.Run(p.Name, func(t *testing.T) {
			prog, err := p.Build(o.Scale)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			rep, err := elide.ForProgram(prog, elide.Options{Harts: harts(p)})
			if err != nil {
				t.Fatalf("elide: %v", err)
			}
			run := func(v decode.Variant, noCache bool) (*pipeline.Sim, *pipeline.Result) {
				cfg := pipeline.DefaultConfig()
				cfg.Variant = v
				cfg.ElideChecks = true
				cfg.ElisionDigest = rep.Digest
				cfg.ElisionCtxK = rep.CtxK
				cfg.NoUopCache = noCache
				sim, res, err := runWithElision(ctx, p, cfg, &o, rep.Map)
				if err != nil {
					t.Fatalf("%v (noUopCache=%v): %v", v, noCache, err)
				}
				return sim, res
			}
			for _, v := range variants {
				simOn, on := run(v, false)
				_, off := run(v, true)
				jOn, _ := json.Marshal(on)
				jOff, _ := json.Marshal(off)
				if !bytes.Equal(jOn, jOff) {
					t.Errorf("%v: Result diverges with μop cache on vs off:\non:  %s\noff: %s", v, jOn, jOff)
				}
				if st := simOn.UopCacheStats(); st.Hits == 0 {
					t.Errorf("%v: μop cache never hit (stats %+v) — the differential is vacuous", v, st)
				}
				if v == decode.VariantMicrocodePrediction && on.ChecksElided > 0 {
					eliding++
				}
			}
		})
	}
	if want := 10; eliding < want {
		t.Fatalf("elision suppressed checks on only %d/%d workloads under prediction, want >= %d",
			eliding, len(all), want)
	}
}
