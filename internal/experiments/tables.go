package experiments

import (
	"context"
	"fmt"
	"strings"

	"chex86/internal/decode"
	"chex86/internal/memprof"
	"chex86/internal/pipeline"
	"chex86/internal/tracker"
	"chex86/internal/workload"
)

// ---------------------------------------------------------------------
// Figure 3: benchmark memory allocation behavior.
// ---------------------------------------------------------------------

// Fig3Row holds one benchmark's allocation profile.
type Fig3Row struct {
	Bench string
	Stats *memprof.Stats
}

// RunFig3 profiles allocation behavior for every benchmark. The interval
// is scaled down with the workloads (the paper uses 100M instructions at
// full benchmark scale).
func RunFig3(o Options) ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, p := range o.profiles() {
		prog, err := p.Build(o.Scale)
		if err != nil {
			return nil, err
		}
		st, err := memprof.Profile(prog, harts(p), 50_000, o.MaxInsts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig3Row{Bench: p.Name, Stats: st})
	}
	return rows, nil
}

// FormatFig3 renders Figure 3 as a text table.
func FormatFig3(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3: Benchmark Memory Allocation Behavior (scaled; ratios preserved)\n")
	fmt.Fprintf(&b, "%-14s%14s%16s%22s\n", "benchmark", "total allocs", "max live", "in-use / interval")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s%14d%16d%22.0f\n", r.Bench,
			r.Stats.TotalAllocs, r.Stats.MaxLive, r.Stats.AvgInUse)
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Table I: rule database, validated by the hardware checker.
// ---------------------------------------------------------------------

// Table1Result reports the checker's validation of the rule database over
// one benchmark.
type Table1Result struct {
	Bench       string
	Validations uint64
	Mismatches  uint64
	WrongPIDs   uint64 `json:",omitempty"`
	Mismatch    []tracker.Mismatch
}

// RunTable1 executes every benchmark with the hardware checker
// co-processor enabled, validating the tracker's PID predictions against
// the exhaustive ground-truth search (the rule-database construction loop
// of Section V-A).
func RunTable1(o Options) ([]Table1Result, error) {
	var out []Table1Result
	for _, p := range o.profiles() {
		prog, err := p.Build(o.Scale)
		if err != nil {
			return nil, err
		}
		cfg := pipeline.DefaultConfig()
		cfg.EnableChecker = true
		cfg.MaxInsts = o.MaxInsts
		cfg.MaxCycles = o.MaxCycles
		sim, err := pipeline.NewSim(prog, cfg, harts(p))
		if err != nil {
			return nil, err
		}
		res, err := o.runSim(context.Background(), sim)
		if err != nil {
			return nil, err
		}
		out = append(out, Table1Result{
			Bench:       p.Name,
			Validations: res.Checker.Validations,
			Mismatches:  res.Checker.Mismatches,
			WrongPIDs:   res.Checker.WrongPIDs,
			Mismatch:    res.Mismatches,
		})
	}
	return out, nil
}

// FormatTable1 renders the rule database and its validation summary,
// with one line under a benchmark's row per mismatch the checker logged.
func FormatTable1(results []Table1Result) string {
	var b strings.Builder
	b.WriteString("Table I: Pointer Tracking Rule Database\n\n")
	b.WriteString(tracker.NewRuleDB().Format())
	b.WriteString("\nHardware-checker validation (PID predicted by rules vs exhaustive ground-truth search):\n")
	fmt.Fprintf(&b, "%-14s%14s%12s%12s\n", "benchmark", "validations", "mismatches", "agreement")
	for _, r := range results {
		agree := 100.0
		if r.Validations > 0 {
			agree = 100 * float64(r.Validations-r.Mismatches) / float64(r.Validations)
		}
		fmt.Fprintf(&b, "%-14s%14d%12d%11.2f%%\n", r.Bench, r.Validations, r.Mismatches, agree)
		for _, m := range r.Mismatch {
			if m.WrongPID() {
				fmt.Fprintf(&b, "  WRONG-PID (rule bug): %s\n", m)
			} else {
				fmt.Fprintf(&b, "  extension candidate:  %s\n", m)
			}
		}
	}
	return b.String()
}

// WrongPIDs counts the mismatches that are rule bugs, logged or not.
func WrongPIDs(results []Table1Result) uint64 {
	var n uint64
	for _, r := range results {
		n += r.WrongPIDs
	}
	return n
}

// ---------------------------------------------------------------------
// Table III: hardware configuration.
// ---------------------------------------------------------------------

// FormatTable3 renders Table III.
func FormatTable3() string {
	cfg := pipeline.DefaultConfig()
	return cfg.FormatTableIII()
}

// ---------------------------------------------------------------------
// Table IV: comparison with prior memory safety techniques.
// ---------------------------------------------------------------------

// Table4Row is one comparison row. Literature rows carry the numbers the
// paper quotes; the CHEx86 row is filled from measurement.
type Table4Row struct {
	Proposal   string
	Temporal   bool
	Spatial    bool
	Metadata   string
	BinCompat  string
	PerfNote   string
	StoreNote  string
	HWChanges  string
	IsMeasured bool
}

// Table4Literature returns the prior-technique rows as the paper reports
// them.
func Table4Literature() []Table4Row {
	return []Table4Row{
		{Proposal: "Hardbound", Spatial: true, Metadata: "Shadow", BinCompat: "Partial",
			PerfNote: "5% (Olden)", StoreNote: "55% (Olden)", HWChanges: "Tag metadata cache + TLB, uop injection logic"},
		{Proposal: "Watchdog", Temporal: true, Spatial: true, Metadata: "Shadow", BinCompat: "Partial",
			PerfNote: "24% (SPEC2000)", StoreNote: "56% (SPEC2000)", HWChanges: "Renaming logic, uop injection, lock location cache"},
		{Proposal: "Intel MPX", Spatial: true, Metadata: "Inline", BinCompat: "No",
			PerfNote: "80% (SPEC2006)", StoreNote: "150% (SPEC2006)", HWChanges: "N/A"},
		{Proposal: "BOGO", Temporal: true, Spatial: true, Metadata: "Inline", BinCompat: "No",
			PerfNote: "60% (SPEC2006)", StoreNote: "36% (SPEC2006)", HWChanges: "N/A"},
		{Proposal: "CHERI", Spatial: true, Metadata: "Inline", BinCompat: "No",
			PerfNote: "18% (Olden)", StoreNote: "90% (Olden)", HWChanges: "Capability coprocessor, tag cache, capability unit"},
		{Proposal: "CHERIvoke", Temporal: true, Metadata: "Inline", BinCompat: "No",
			PerfNote: "4.7% (SPEC2006)", StoreNote: "12.5% (SPEC2006)", HWChanges: "Capability co-processor, tag cache/controller"},
		{Proposal: "REST", Temporal: true, Spatial: true, Metadata: "Shadow", BinCompat: "No",
			PerfNote: "23% (SPEC2006)", StoreNote: "N/A", HWChanges: "1-8b per L1D line, 1 comparator"},
		{Proposal: "Califorms", Temporal: true, Spatial: true, Metadata: "Shadow", BinCompat: "No",
			PerfNote: "16% (SPEC2006)", StoreNote: "N/A", HWChanges: "8b per L1D line, 1b per L2/L3 line"},
	}
}

// RunTable4 measures the CHEx86 row (SPEC performance and storage
// overhead) and appends it to the literature rows.
func RunTable4(o Options) ([]Table4Row, error) {
	rows := Table4Literature()
	specOnly := o
	if len(specOnly.Benches) == 0 {
		var names []string
		for _, p := range workload.Catalog() {
			if p.Suite == workload.SuiteSPEC {
				names = append(names, p.Name)
			}
		}
		specOnly.Benches = names
	}
	var slowProd float64 = 1
	var storProd float64 = 1
	n := 0
	for _, p := range specOnly.profiles() {
		base := pipeline.DefaultConfig()
		base.Variant = decode.VariantInsecure
		bres, err := run(p, base, &specOnly)
		if err != nil {
			return nil, err
		}
		chex := pipeline.DefaultConfig()
		cres, err := run(p, chex, &specOnly)
		if err != nil {
			return nil, err
		}
		slowProd *= float64(cres.Cycles) / float64(bres.Cycles)
		if bres.UserRSS > 0 {
			storProd *= float64(cres.UserRSS+cres.ShadowRSS) / float64(bres.UserRSS)
		}
		n++
	}
	perf := 100 * (pow(slowProd, 1/float64(n)) - 1)
	stor := 100 * (pow(storProd, 1/float64(n)) - 1)
	rows = append(rows, Table4Row{
		Proposal: "CHEx86", Temporal: true, Spatial: true, Metadata: "Shadow", BinCompat: "Yes",
		PerfNote:   fmt.Sprintf("%.0f%% (SPEC2017, measured)", perf),
		StoreNote:  fmt.Sprintf("%.0f%% (SPEC2017, measured)", stor),
		HWChanges:  "uop injection logic, Capability$, Alias$, speculative pointer tracker",
		IsMeasured: true,
	})
	return rows, nil
}

// FormatTable4 renders the comparison table.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table IV: Comparison with Prior Memory Safety Techniques\n")
	fmt.Fprintf(&b, "%-12s%6s%6s%9s%8s%-26s%-26s%s\n",
		"proposal", "temp", "spat", "metadata", "compat", "  performance", "  storage", "hardware modifications")
	yn := func(v bool) string {
		if v {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s%6s%6s%9s%8s  %-24s  %-24s%s\n",
			r.Proposal, yn(r.Temporal), yn(r.Spatial), r.Metadata, r.BinCompat,
			r.PerfNote, r.StoreNote, r.HWChanges)
	}
	return b.String()
}
