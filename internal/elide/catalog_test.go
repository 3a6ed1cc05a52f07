package elide_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"chex86/internal/elide"
	"chex86/internal/ptrflow"
	"chex86/internal/workload"
)

// catalogHarts is the hart count chexmark runs a catalog program with.
func catalogHarts(p *workload.Profile) int {
	if p.Threads > 0 {
		return p.Threads
	}
	return 1
}

// pinnedElision holds, per catalog program at scale 0.1, the SHA-256 of
// its proof bundle's JSON and its elision report's digest. The static
// analysis and its checker are host-side code: a change that only makes
// them faster must leave both untouched. Re-pin only with a change that
// means to move what the analysis proves, and say why.
var pinnedElision = map[string][2]string{
	"perlbench":    {"7c496fe12108c8e4aac648aa94ca70dc7f49144fc4c6afa94d8726992fa9c16d", "122cd7d824b18c0a7a4f5b0958183e7517c93c55614a94e3ad41eead5642ee75"},
	"gcc":          {"aafa105230326cb8f02f300683a52fa52bac074ac9d158667bb72e6023591e26", "48d1bcdc82387dc93357c3abd08008646420e29fbd4d49bedd12af901188ad03"},
	"mcf":          {"7260ce318be902ff9188d1db1d970746368e74078ea5b88afd587c8a60e1c398", "2b57a791d6203ae86e575d0a0b3b183e406181b36497cc4c724fdb8e43683fc8"},
	"xalancbmk":    {"5dc08f1d172c1bad1d4c9b46646a212dbd3b418a5de99cba88e7e6b093669fe2", "af80cdc1dc3a9d8e4fecdaf80a81a9e1f6be7c77f4ece407fd48bd9cdffe7424"},
	"deepsjeng":    {"2fe9b97f343ecea0d0a4efdb5db28cb57144617933075215281a9ebb93e5ab26", "31c3f4593ab860c457ed6c8eea26b4dd87e5487c20fc767ce36e0750f3c750cf"},
	"leela":        {"5650bc540b97bba754f569969341846befa29780e8f062aafb757bf3f03b1171", "1a12dd4a1c0a36f8a5319a452ab805175bab2276b1e3264ceca19ab1d8abae8b"},
	"lbm":          {"6e784463a211349cdceb7824369c3061b79a649c61999a8715e9d54efea29d4e", "a3aecd71261beb92a16e06af9d91c1b5facd69988383145c3ed4a3ea5625eb28"},
	"nab":          {"5f3c4a32082b756ad9f6e03c61660ce85bcc0073bc80627a100033471ecfe3a2", "444544cf84101d9a4648482c175ef85ae7390cd8479ad2010c2eb52e76a75632"},
	"blackscholes": {"a5180f98329bf9a17a8c4048c90793d317aae80da0fb08ec0d80b1677e09454d", "754d5f5a8105a8229af16a30519c7f0705d05a96fbed0ef7fe5ac0fb8fd22875"},
	"bodytrack":    {"28a36e22757709a39e2ffda601b9ac1c2558ca822be84371daea81392f244718", "f09b47755eae60ee3bce5b967bb4da9205251485f47ec9e9572958b309079cdd"},
	"fluidanimate": {"6683d173959f6afce3e33bc6118bec4d61e825207794c5fc12791e21489f058a", "e73524d84adce6e0ac083f568086da2944651e981f73e6b41a075a0d4af3ec57"},
	"freqmine":     {"94078cf473ca466d6bea0f81ca9291a24a1a148c27264dc78eacf924acead84b", "241fef1ffb0bcb3b0a1f435e83b2acb74b531c1e67962a7ec736d7b0579b1540"},
	"swaptions":    {"6c0545352bb3b5c2921f94dbcac5a8d074a9dd4de10dc6a1ddecf4bf7da98b45", "10f73581e74eea2e9c22a044bf9eaf8b9ed63382896ec9d58f686e514b36c6ab"},
	"canneal":      {"b8b0c287bf792d9afcd176c8b33385e68296e389641557e0d513c1d63cb54580", "9f947b1f6c62e117d7947932870a5a931e6c996182a54a4e788da4d12ebf8a1e"},
}

// TestCatalogElisionPinned holds every catalog program's proof bundle
// and elision decisions byte for byte across changes to the analyzer
// and the checker. It is also the knob-free profile of the analysis:
// `go test ./internal/elide -run TestCatalogElisionPinned -count=1
// -cpuprofile cpu.pprof -memprofile mem.pprof`.
func TestCatalogElisionPinned(t *testing.T) {
	names := workload.Names()
	if len(names) != len(pinnedElision) {
		t.Fatalf("catalog has %d programs, %d pinned", len(names), len(pinnedElision))
	}
	for _, name := range names {
		p := workload.ByName(name)
		prog, err := p.Build(0.1)
		if err != nil {
			t.Fatal(err)
		}
		an, err := ptrflow.Analyze(prog, ptrflow.Options{Harts: catalogHarts(p)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		bundle, err := json.Marshal(an.ProofBundle())
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(bundle)
		rep := elide.FromAnalysis(prog, an, elide.Options{Harts: catalogHarts(p)})
		got := [2]string{hex.EncodeToString(sum[:]), rep.Digest}
		if got != pinnedElision[name] {
			t.Errorf("%s: bundle sha256 and report digest moved; now\n\t%q: {%q, %q},",
				name, name, got[0], got[1])
		}
	}
}

// allocated returns the bytes and objects f allocates.
func allocated(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestAnalysisAllocBudget bounds what analyzing and checking canneal at
// scale 0.1 allocate, each call on its own. Block transfers run on
// reused scratch states, so only stored entry facts, the bundle and the
// checker's decoded claims allocate: Analyze takes about 1.75 MB in 4.7k
// objects and FromAnalysis 1.65 MB in 4.4k (1.77 MB in 4.9k and 1.83 MB
// in 4.8k under -race). A fresh state per transfer took 10.4 MB in
// 24.3k objects for the two together. Either call regressing alone
// must fail: one per-transfer clone in the analyzer's ⊤ fixpoint reads
// 6.4k objects, one fresh checker state per copy 2.4 MB in 5.6k.
func TestAnalysisAllocBudget(t *testing.T) {
	const (
		maxAnalyzeBytes, maxAnalyzeObjects = 2_100_000, 5_600
		maxCheckBytes, maxCheckObjects     = 2_100_000, 5_300
	)
	p := workload.ByName("canneal")
	prog, err := p.Build(0.1)
	if err != nil {
		t.Fatal(err)
	}
	var an *ptrflow.Analysis
	bytes, objects := allocated(func() {
		an, err = ptrflow.Analyze(prog, ptrflow.Options{Harts: catalogHarts(p)})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Analyze: %d bytes in %d objects", bytes, objects)
	if bytes > maxAnalyzeBytes || objects > maxAnalyzeObjects {
		t.Errorf("Analyze allocated %d bytes in %d objects; budget %d bytes, %d objects",
			bytes, objects, maxAnalyzeBytes, maxAnalyzeObjects)
	}
	var rep *elide.Report
	bytes, objects = allocated(func() {
		rep = elide.FromAnalysis(prog, an, elide.Options{Harts: catalogHarts(p)})
	})
	if !rep.Verified {
		t.Fatalf("canneal bundle rejected: %s", rep.Reason)
	}
	t.Logf("FromAnalysis: %d bytes in %d objects", bytes, objects)
	if bytes > maxCheckBytes || objects > maxCheckObjects {
		t.Errorf("FromAnalysis allocated %d bytes in %d objects; budget %d bytes, %d objects",
			bytes, objects, maxCheckBytes, maxCheckObjects)
	}
}
