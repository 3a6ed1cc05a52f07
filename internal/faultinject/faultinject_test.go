package faultinject

import (
	"bytes"
	"testing"
)

// small returns a quick campaign configuration for determinism checks.
func small(seed uint64) Config {
	return Config{
		Seed:         seed,
		Workloads:    []string{"mcf"},
		Variants:     []string{"prediction"},
		FaultsPerRun: 5,
		MaxInsts:     4000,
	}
}

// TestCampaignDeterminism: equal seeds produce byte-identical JSON
// reports; different seeds produce different ones.
func TestCampaignDeterminism(t *testing.T) {
	j := func(seed uint64) []byte {
		rep, err := Run(small(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := j(3), j(3), j(4)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed campaigns must marshal to byte-identical reports")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds must produce different reports")
	}
}

// TestCampaignContract runs the default campaign (2 workloads × 2 variants
// × all sites) and checks the resilience acceptance criteria: at least 200
// faults across every site family, and not a single silent outcome or
// panic.
func TestCampaignContract(t *testing.T) {
	rep, err := Run(Config{Seed: 1, FaultsPerRun: 10, MaxInsts: 8000})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * len(AllSites()); rep.Totals.Runs != want {
		t.Fatalf("runs = %d, want %d", rep.Totals.Runs, want)
	}
	if rep.Totals.Faults < 200 {
		t.Fatalf("campaign injected %d faults, want >= 200", rep.Totals.Faults)
	}
	if rep.Totals.Silent != 0 || rep.Totals.Panics != 0 || rep.Totals.Errors != 0 {
		t.Fatalf("fail-closed contract broken: %+v", rep.Totals)
	}
	if !rep.Pass {
		t.Fatal("campaign must pass")
	}
	perSite := make(map[Site]int)
	for _, rr := range rep.Runs {
		perSite[rr.Site] += rr.FaultsInjected
		switch rr.Class {
		case ClassDetected, ClassDegraded, ClassPerfOnly:
		default:
			t.Fatalf("%s/%s/%s: unexpected class %s", rr.Workload, rr.Variant, rr.Site, rr.Class)
		}
	}
	for _, s := range AllSites() {
		if perSite[s] == 0 {
			t.Fatalf("site %s never injected a fault", s)
		}
	}
}

// TestCapTableFaultsAccounted: every run against the capability table must
// account each fault as a quarantine or eviction (Degraded) — that is the
// fail-closed invariant the ECC metadata exists to uphold.
func TestCapTableFaultsAccounted(t *testing.T) {
	cfg := small(9)
	cfg.Sites = []Site{SiteCapTable}
	cfg.FaultsPerRun = 8
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range rep.Runs {
		if rr.FaultsInjected == 0 {
			t.Fatalf("%s/%s: no faults reached the capability table", rr.Workload, rr.Variant)
		}
		if rr.Accounted < uint64(rr.FaultsInjected) {
			t.Fatalf("%s/%s: %d faults but only %d accounted", rr.Workload, rr.Variant,
				rr.FaultsInjected, rr.Accounted)
		}
	}
}

// TestConfigValidation: unknown workloads, variants and sites are campaign
// configuration errors, not silent no-ops. A site that was removed fails
// closed like any other unknown name.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Workloads: []string{"nope"}}); err == nil {
		t.Fatal("unknown workload must be rejected")
	}
	if _, err := Run(Config{Variants: []string{"nope"}}); err == nil {
		t.Fatal("unknown variant must be rejected")
	}
	if _, err := Run(Config{Sites: []Site{"dift-tag"}}); err == nil {
		t.Fatal("removed site must be rejected")
	}
}
