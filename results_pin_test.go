package chex86

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"chex86/internal/decode"
	"chex86/internal/experiments"
	"chex86/internal/faultinject"
	"chex86/internal/security"
)

// pinnedResults holds the SHA-256 of every output of the Results screen:
// fig6.json and elision.json as written by
// `chexbench -fig 6 -elide -scale 0.1 -insts 50000 -json DIR`, the
// `chexfault -seed 1 -insts 8000 -faults 10` report, and the
// `chexsec -variant V -json F` file per variant. A change that only makes
// the host faster must leave every one of them untouched. A change that
// moves a simulated Result on purpose re-pins here, says so in
// CHANGES.md and notes what moved in EXPERIMENTS.md.
var pinnedResults = map[string]string{
	"fig6.json":               "0dd5d7038ba334591002bca40c09d56d5c987320870a13fa499a6c6543f67d66",
	"elision.json":            "9c222ee6f2554809126e1213cb81c52b5728f62c2ba24ede978d2068a58936dc",
	"chexfault-seed1.json":    "cfd05cb21da4beb300824531e5c9995d760b140b25f57adc519fd6548e0c9b51",
	"chexsec-baseline.json":   "24cae9b904efe2575fbcc3cced33a36f589c5916ba3220933e7c89bb8eef54f0",
	"chexsec-hardware.json":   "c2773a91a510ea16bcec330bbff9278e043ebeb122bb0ff470b68435feb06f73",
	"chexsec-bintrans.json":   "c2773a91a510ea16bcec330bbff9278e043ebeb122bb0ff470b68435feb06f73",
	"chexsec-always-on.json":  "c2773a91a510ea16bcec330bbff9278e043ebeb122bb0ff470b68435feb06f73",
	"chexsec-prediction.json": "c2773a91a510ea16bcec330bbff9278e043ebeb122bb0ff470b68435feb06f73",
	"chexsec-asan.json":       "2217223d2d7f3516d0b86b790c6ba6b7525c5f81132982621f2a1859af1072ab",
	"chexsec-watchdog.json":   "c2773a91a510ea16bcec330bbff9278e043ebeb122bb0ff470b68435feb06f73",
}

// resultsScreen produces the screen's outputs by the code paths the
// three commands take, keyed as in pinnedResults.
func resultsScreen(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	dir := t.TempDir()
	o := experiments.Options{Scale: 0.1, MaxInsts: 50_000}
	// chexbench runs -elide before the figures.
	elision, err := experiments.RunElision(o)
	if err != nil {
		t.Fatal(err)
	}
	fig6, err := experiments.RunFig6(o)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]any{"elision": elision, "fig6": fig6} {
		if err := experiments.WriteJSON(dir, name, v); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		out[name+".json"] = b
	}

	// chexfault's defaults, with -seed 1 -insts 8000 -faults 10.
	rep, err := faultinject.Run(faultinject.Config{
		Seed:         1,
		Workloads:    []string{"mcf", "xalancbmk"},
		Variants:     []string{"always-on", "prediction"},
		FaultsPerRun: 10,
		Scale:        1,
		MaxInsts:     8000,
		MaxCycles:    5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out["chexfault-seed1.json"], err = rep.JSON(); err != nil {
		t.Fatal(err)
	}

	for v := decode.Variant(0); v < decode.NumVariants; v++ {
		var outs []*security.Outcome
		for _, e := range security.All() {
			outs = append(outs, security.Run(e, v))
		}
		b, err := security.JSON(outs)
		if err != nil {
			t.Fatal(err)
		}
		out["chexsec-"+v.ShortName()+".json"] = b
	}
	return out
}

// TestResultsPinned holds the simulated Results byte for byte. On a
// mismatch it prints the new digest of each output that moved.
func TestResultsPinned(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("runs the Results screen: about 7 s, over a minute under -race")
	}
	got := resultsScreen(t)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) != len(pinnedResults) {
		t.Errorf("the screen writes %d outputs, %d pinned", len(names), len(pinnedResults))
	}
	for _, name := range names {
		sum := sha256.Sum256(got[name])
		if d := hex.EncodeToString(sum[:]); d != pinnedResults[name] {
			t.Errorf("%s moved; now\n\t%q: %q,", name, name, d)
		}
	}
}
