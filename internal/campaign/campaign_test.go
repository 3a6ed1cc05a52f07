package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chex86/internal/faultinject"
	"chex86/internal/lint/determinism"
	"chex86/internal/pipeline"
)

func TestKeyStability(t *testing.T) {
	s1 := BenchSpec("mcf", pipeline.DefaultConfig(), 0.25, 20000, 0)
	s2 := BenchSpec("mcf", pipeline.DefaultConfig(), 0.25, 20000, 0)
	k1, err := s1.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := s2.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("identical specs produced different keys:\n%s\n%s", k1, k2)
	}
	if !validKey(k1) {
		t.Fatalf("key %q is not a sha256 hex digest", k1)
	}

	// Every content-relevant change must move the key.
	distinct := map[string]string{"base": k1}
	check := func(name string, s Spec) {
		k, err := s.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for prev, pk := range distinct {
			if pk == k {
				t.Errorf("%s collides with %s", name, prev)
			}
		}
		distinct[name] = k
	}
	check("other-workload", BenchSpec("lbm", pipeline.DefaultConfig(), 0.25, 20000, 0))
	check("other-insts", BenchSpec("mcf", pipeline.DefaultConfig(), 0.25, 30000, 0))
	check("other-scale", BenchSpec("mcf", pipeline.DefaultConfig(), 0.5, 20000, 0))
	bigCap := pipeline.DefaultConfig()
	bigCap.CapCacheEntries = 128
	check("other-config", BenchSpec("mcf", bigCap, 0.25, 20000, 0))
	check("fault-mode", FaultSpec(faultinject.Config{
		Workloads: []string{"mcf"}, Variants: []string{"prediction"},
		Sites: []faultinject.Site{faultinject.AllSites()[0]},
	}))
}

func TestKeyTracksElisionConfig(t *testing.T) {
	// Satellite of the proof-carrying elision work (DESIGN.md §11): a
	// cached result obtained with capability checks elided must never be
	// served for a run with checks enforced, and vice versa — the knob
	// and the installed map's digest are both part of the content
	// address.
	base := BenchSpec("mcf", pipeline.DefaultConfig(), 0.25, 20000, 0)
	k0, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}

	elided := pipeline.DefaultConfig()
	elided.ElideChecks = true
	s1 := BenchSpec("mcf", elided, 0.25, 20000, 0)
	k1, err := s1.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k0 {
		t.Fatal("flipping Config.ElideChecks must change the content address")
	}

	digested := elided
	digested.ElisionDigest = "deadbeef"
	s2 := BenchSpec("mcf", digested, 0.25, 20000, 0)
	k2, err := s2.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k2 == k1 || k2 == k0 {
		t.Fatal("changing Config.ElisionDigest must change the content address")
	}

	other := elided
	other.ElisionDigest = "cafef00d"
	s3 := BenchSpec("mcf", other, 0.25, 20000, 0)
	k3, err := s3.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k2 {
		t.Fatal("distinct elision maps must have distinct content addresses")
	}
}

// TestKeyIgnoresHostReplayKnobs pins that host-side replay knobs —
// today the μop cache switch, which cannot change result bytes — never
// reach the content address: toggling one must not invalidate cached
// campaign results.
func TestKeyIgnoresHostReplayKnobs(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	s1 := BenchSpec("mcf", cfg, 0.25, 20000, 0)
	k1, err := s1.Key()
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoUopCache = true
	s2 := BenchSpec("mcf", cfg, 0.25, 20000, 0)
	k2, err := s2.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("host replay knobs must not change the content address")
	}
}

func TestKeyNormalizesFaultDefaults(t *testing.T) {
	// An explicit default and an elided default are the same campaign.
	a := FaultSpec(faultinject.Config{Workloads: []string{"mcf"}, Variants: []string{"prediction"}, Sites: faultinject.AllSites()[:1]})
	b := FaultSpec(faultinject.Config{Workloads: []string{"mcf"}, Variants: []string{"prediction"}, Sites: faultinject.AllSites()[:1], Scale: 1.0, FaultsPerRun: 15})
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatal("normalized fault configs must share a key")
	}
}

func TestKeyRejectsInvalidSpecs(t *testing.T) {
	for name, s := range map[string]Spec{
		"no-mode":          {},
		"unknown-mode":     {Mode: "mystery"},
		"unknown-workload": {Mode: ModeBench, Workload: "nonesuch"},
		"fault-no-config":  {Mode: ModeFault},
	} {
		if _, err := s.Key(); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func fakeResult(workloadName string) *Result {
	return &Result{
		Schema:   ResultSchema,
		Mode:     ModeBench,
		Workload: workloadName,
		Variant:  "prediction",
		Bench:    &BenchResult{Cycles: 1234, Insts: 567, IPC: 0.459},
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := BenchSpec("mcf", pipeline.DefaultConfig(), 0.25, 20000, 0)
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	want := fakeResult("mcf")
	if err := c.Put(key, spec, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.Bench.Cycles != want.Bench.Cycles || got.Workload != "mcf" {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}

	// A second cache instance over the same dir must see the entry (the
	// on-disk store, not the in-memory index, is authoritative).
	c2, err := OpenCache(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key); !ok {
		t.Fatal("fresh cache instance missed the on-disk entry")
	}
	n, err := c2.Len()
	if err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1", n, err)
	}
}

func TestCacheEntryBytesStable(t *testing.T) {
	spec := BenchSpec("mcf", pipeline.DefaultConfig(), 0.25, 20000, 0)
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	e := &Entry{Schema: EntrySchema, Key: key, Spec: spec, Result: fakeResult("mcf")}
	b1, err := MarshalEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := MarshalEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("entry marshaling is not byte-stable")
	}

	// Writing the same result twice leaves the file byte-identical.
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, spec, e.Result); err != nil {
		t.Fatal(err)
	}
	f1, err := os.ReadFile(filepath.Join(c.Dir(), key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, spec, e.Result); err != nil {
		t.Fatal(err)
	}
	f2, err := os.ReadFile(filepath.Join(c.Dir(), key+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1, f2) {
		t.Fatal("re-putting an identical result changed the cache file bytes")
	}
}

func TestCacheRejectsCorruptAndForeignEntries(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ab", 32)
	if err := os.WriteFile(filepath.Join(c.Dir(), key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, ok := c.Get("../../etc/passwd"); ok {
		t.Fatal("path-traversal key served as a hit")
	}
	if err := c.Put("../escape", Spec{}, fakeResult("x")); err == nil {
		t.Fatal("Put accepted a non-digest key")
	}
}

// TestDeterminismGate holds the campaign package to the chexvet contract
// with zero waivers: byte-stable serialization cannot coexist with
// wall-clock reads, global rand, or map-iteration feeding writers — and a
// waiver comment here would hide exactly the bug class the
// content-addressed cache cannot tolerate.
func TestDeterminismGate(t *testing.T) {
	findings, err := determinism.LintDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("determinism hazard: %s", f)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		waiver := "//determinism" + ":ok" // split so this file doesn't match itself
		if strings.Contains(string(src), waiver) {
			t.Errorf("%s: campaign sources must pass the determinism lint without waivers", e.Name())
		}
	}
}
