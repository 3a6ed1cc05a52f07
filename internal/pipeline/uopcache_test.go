package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"chex86/internal/decode"
	"chex86/internal/isa"
	"chex86/internal/workload"
)

// marshalResult renders a Result for byte-level comparison. json.Marshal
// of a struct is field-declaration-ordered and deterministic, so two
// byte-identical encodings mean every exported counter, cache statistic,
// and violation matches exactly.
func marshalResult(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

func runWorkloadWithCache(t *testing.T, p *workload.Profile, v decode.Variant, noCache bool) (*Sim, *Result) {
	t.Helper()
	prog, err := p.Build(0.1)
	if err != nil {
		t.Fatalf("%s: build: %v", p.Name, err)
	}
	cfg := DefaultConfig()
	cfg.Variant = v
	cfg.WarmupInsts = p.SetupInsts()
	cfg.MaxInsts = 12_000 + cfg.WarmupInsts
	cfg.NoUopCache = noCache
	harts := 1
	if p.Threads > 0 {
		harts = p.Threads
	}
	sim, err := NewSim(prog, cfg, harts)
	if err != nil {
		t.Fatalf("%s/%v: NewSim: %v", p.Name, v, err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatalf("%s/%v: run: %v", p.Name, v, err)
	}
	return sim, res
}

// TestUopCacheDifferentialAllWorkloads is the tentpole's differential
// gate: across every catalog workload and every protection variant, the
// simulation Result must be byte-identical with the μop translation cache
// enabled (the default) and disabled.
func TestUopCacheDifferentialAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload×variant sweep")
	}
	for _, p := range workload.Catalog() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			for v := decode.Variant(0); v < decode.NumVariants; v++ {
				simOn, on := runWorkloadWithCache(t, p, v, false)
				_, off := runWorkloadWithCache(t, p, v, true)
				jOn, jOff := marshalResult(t, on), marshalResult(t, off)
				if !bytes.Equal(jOn, jOff) {
					t.Errorf("%s/%v: Result diverges with μop cache on vs off:\non:  %s\noff: %s",
						p.Name, v, jOn, jOff)
				}
				if st := simOn.UopCacheStats(); st.Hits == 0 {
					t.Errorf("%s/%v: μop cache never hit (stats %+v) — the differential is vacuous", p.Name, v, st)
				}
			}
		})
	}
}

// TestUopCacheMidStreamMicrocodeUpdate exercises generation-based
// invalidation: a field update is installed into the writable microcode
// RAM mid-stream (after translations are already cached), later removed,
// and the run must still be byte-identical to a cache-disabled run with
// the same update schedule.
func TestUopCacheMidStreamMicrocodeUpdate(t *testing.T) {
	p := workload.ByName("mcf")
	if p == nil {
		t.Fatal("mcf workload missing from catalog")
	}

	runOne := func(noCache bool) (*Sim, *Result) {
		prog, err := p.Build(0.1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MaxInsts = 20_000
		cfg.NoUopCache = noCache
		sim, err := NewSim(prog, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		step := func(rounds int) {
			if _, err := sim.Step(rounds); err != nil {
				t.Fatal(err)
			}
		}
		// Phase 1: populate the cache with native translations.
		step(3000)
		// Phase 2: the MSRAM changes — every load translation is now
		// rerouted, so cached native translations must be invalidated.
		sim.Microcode.Install(decode.LoadFence("midstream", func(rip uint64) bool { return true }))
		step(3000)
		// Phase 3: the update is removed; rerouted cached translations
		// must be invalidated back to native ones.
		sim.Microcode.Remove("midstream")
		if _, err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return sim, sim.Result()
	}

	simOn, on := runOne(false)
	_, off := runOne(true)
	jOn, jOff := marshalResult(t, on), marshalResult(t, off)
	if !bytes.Equal(jOn, jOff) {
		t.Errorf("mid-stream microcode update diverges with μop cache on vs off:\non:  %s\noff: %s", jOn, jOff)
	}
	st := simOn.UopCacheStats()
	if st.Hits == 0 || st.Invalidations == 0 {
		t.Errorf("mid-stream case did not exercise the cache: stats %+v", st)
	}
	if on.MSROMMacros == 0 {
		t.Error("field update never rerouted a translation — the invalidation test is vacuous")
	}
}

// TestUopCacheGenerationInvalidation checks the cache primitive directly:
// a generation change must miss and evict, and a conflict-mapped address
// must evict the previous occupant.
func TestUopCacheGenerationInvalidation(t *testing.T) {
	uc := newUopCache(16)
	uops := []isa.Uop{{Type: isa.UNop}}
	uc.insert(0x400000, 1, uops, 1, false)
	if e := uc.lookup(0x400000, 1); e == nil {
		t.Fatal("expected hit at installed generation")
	}
	if e := uc.lookup(0x400000, 2); e != nil {
		t.Fatal("expected miss after generation bump")
	}
	if uc.invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", uc.invalidations)
	}
	// Same slot, different address (conflict): the tag check must reject.
	conflict := uint64(0x400000) + 16*4
	uc.insert(conflict, 2, uops, 1, false)
	if e := uc.lookup(0x400000, 2); e != nil {
		t.Fatal("conflict-evicted address must miss")
	}
	if e := uc.lookup(conflict, 2); e == nil {
		t.Fatal("conflicting occupant must hit")
	}
}

// TestUopCacheInsertCopies pins the immutability contract: mutating the
// caller's slice after insert must not alter the cached translation.
func TestUopCacheInsertCopies(t *testing.T) {
	uc := newUopCache(1)
	scratch := []isa.Uop{{Type: isa.ULoad, EA: 1}}
	uc.insert(0x400000, 0, scratch, 1, false)
	scratch[0].EA = 0xDEAD
	e := uc.lookup(0x400000, 0)
	if e == nil {
		t.Fatal("expected hit")
	}
	if e.uops[0].EA != 1 {
		t.Fatalf("cached translation aliased the caller's scratch: EA = %#x", e.uops[0].EA)
	}
}

// TestCanonicalJSONIgnoresNoUopCache pins the campaign-cache-key
// contract: the μop cache cannot change result bytes, so toggling it must
// not change CanonicalJSON — otherwise every content-addressed campaign
// cache entry would be spuriously invalidated.
func TestCanonicalJSONIgnoresNoUopCache(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	b.NoUopCache = true
	ja, jb := a.CanonicalJSON(), b.CanonicalJSON()
	if !bytes.Equal(ja, jb) {
		t.Fatalf("NoUopCache leaked into CanonicalJSON:\n%s\n%s", ja, jb)
	}
}

func ExampleSim_UopCacheStats() {
	p := workload.ByName("mcf")
	prog, _ := p.Build(0.1)
	cfg := DefaultConfig()
	cfg.MaxInsts = 5000
	sim, _ := NewSim(prog, cfg, 1)
	_, _ = sim.Run()
	st := sim.UopCacheStats()
	fmt.Println(st.Hits > 0 && st.HitRate() > 0.9)
	// Output: true
}
