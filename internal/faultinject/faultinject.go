// Package faultinject is a seeded, deterministic fault-injection framework
// for the CHEx86 security substrate. A campaign runs workload × variant
// combinations and, mid-simulation, injects faults into the structures the
// enforcement path depends on:
//
//   - shadow capability table entries (base/bounds/permission bit flips and
//     forced evictions),
//   - capability-cache and alias-cache line drops,
//   - pointer-reload-predictor entry corruption, and
//   - forced context-switch state loss (cold cap/alias/TLB structures).
//
// Every outcome is classified against the fail-closed contract: corrupted
// capability metadata must surface as a Violation ("detected") or as an
// explicitly accounted enforcement-capacity loss ("degraded"); faults in
// advisory structures must cost performance only ("perf-only"). A fault
// that produces neither — or a panic — fails the campaign.
//
// Campaigns are reproducible: the same seed yields a byte-identical JSON
// report (no timestamps, deterministic enumeration orders, per-run RNGs
// derived from seed ⊕ FNV(workload|variant|site)).
package faultinject

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// Site names one fault-injection target in the security substrate.
type Site string

// The four fault families of the campaign's fault model, as five sites (the
// two in-core metadata caches are separate sites of the same cache-drop
// family).
const (
	SiteCapTable   Site = "cap-table"   // shadow capability table bit flips / evictions
	SiteCapCache   Site = "cap-cache"   // capability-cache line drops
	SiteAliasCache Site = "alias-cache" // alias-cache line drops
	SitePredictor  Site = "predictor"   // pointer-reload predictor entry corruption
	SiteCtxSwitch  Site = "ctx-switch"  // forced context-switch state loss
)

// AllSites returns every injection site in report order.
func AllSites() []Site {
	return []Site{SiteCapTable, SiteCapCache, SiteAliasCache, SitePredictor, SiteCtxSwitch}
}

// The fabric fault families: injection sites of the distributed campaign
// fabric (internal/fabric) rather than the simulated microarchitecture.
// They are targeted by the fabric chaos harness, which injects them
// through a wrapped Transport instead of through Run — so they are
// deliberately NOT part of AllSites (campaign cell enumeration and cache
// keys must not change).
const (
	SiteWorkerKill  Site = "worker-kill"  // worker dies mid-cell (lease must expire and reassign)
	SiteMsgDrop     Site = "msg-drop"     // coordinator RPC lost in transit
	SiteMsgDelay    Site = "msg-delay"    // coordinator RPC delayed past its usefulness
	SiteMsgDup      Site = "msg-dup"      // coordinator RPC delivered twice (idempotency probe)
	SitePeerCorrupt Site = "peer-corrupt" // peer cache response corrupted (validation must reject)
)

// Class is the fail-closed outcome classification of one campaign run.
type Class string

const (
	// ClassDetected: at least one injected fault surfaced as a Violation.
	ClassDetected Class = "detected"
	// ClassDegraded: every fault was absorbed with explicit accounting
	// (quarantine and eviction counters) but no violation fired.
	ClassDegraded Class = "degraded"
	// ClassPerfOnly: the faults hit advisory/perf-only state; execution
	// finished with unchanged enforcement behavior.
	ClassPerfOnly Class = "perf-only"
	// ClassSilent: a fault was neither detected nor accounted — the
	// fail-closed contract is broken and the campaign fails.
	ClassSilent Class = "silent"
	// ClassPanic: the run panicked. Always a campaign failure.
	ClassPanic Class = "panic"
)

// Config parameterizes a campaign. Zero values take the defaults noted on
// each field.
type Config struct {
	Seed      uint64   // campaign seed (default 1)
	Workloads []string // benchmark names (default mcf, xalancbmk)
	Variants  []string // protection variants (default always-on, prediction)
	Sites     []Site   // injection sites (default AllSites)

	FaultsPerRun int     // injection quota per run (default 15)
	Scale        float64 // workload scale factor (default 1.0)
	MaxInsts     uint64  // post-warmup instruction budget per run (default 40000)
	MaxCycles    uint64  // watchdog cycle budget per run (default 5000000)
}

func (c *Config) setDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"mcf", "xalancbmk"}
	}
	if len(c.Variants) == 0 {
		c.Variants = []string{"always-on", "prediction"}
	}
	if len(c.Sites) == 0 {
		c.Sites = AllSites()
	}
	if c.FaultsPerRun <= 0 {
		c.FaultsPerRun = 15
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = 40000
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 5000000
	}
}

// Normalized returns the configuration with every defaulted field made
// explicit. Two configurations that normalize identically run identical
// campaigns, so content-addressed caching (internal/campaign) hashes the
// normalized form: `Scale: 0` and `Scale: 1.0` are the same campaign and
// must share a cache key.
func (c Config) Normalized() Config {
	c.setDefaults()
	return c
}

// Cells splits the campaign into its independent workload × variant × site
// runs, one single-run Config per cell, in the same order Run executes
// them. Each cell keeps the campaign Seed: per-run RNG streams are derived
// from (Seed, workload, variant, site) and never from execution order, so
// running cells concurrently — or out of order, or from a cache — and
// merging the reports reproduces the sequential campaign byte for byte.
func (c Config) Cells() []Config {
	c.setDefaults()
	var cells []Config
	for _, w := range c.Workloads {
		for _, v := range c.Variants {
			for _, site := range c.Sites {
				cell := c
				cell.Workloads = []string{w}
				cell.Variants = []string{v}
				cell.Sites = []Site{site}
				cells = append(cells, cell)
			}
		}
	}
	return cells
}

// Merge reassembles per-cell reports (in Cells order) into the campaign
// report that Run(cfg) would have produced sequentially: header fields
// come from the campaign configuration, runs are concatenated in cell
// order, and totals and the pass verdict are recomputed.
func Merge(cfg Config, cells []*Report) *Report {
	cfg.setDefaults()
	rep := &Report{
		Schema:    "chexfault-report/v1",
		Seed:      cfg.Seed,
		Workloads: cfg.Workloads,
		Variants:  cfg.Variants,
		Sites:     cfg.Sites,
	}
	for _, cell := range cells {
		for _, rr := range cell.Runs {
			rep.add(rr)
		}
	}
	rep.Pass = rep.Totals.Silent == 0 && rep.Totals.Panics == 0 && rep.Totals.Errors == 0
	return rep
}

// add appends one run and folds it into the totals.
func (r *Report) add(rr RunReport) {
	r.Runs = append(r.Runs, rr)
	r.Totals.Runs++
	r.Totals.Faults += rr.FaultsInjected
	switch rr.Class {
	case ClassDetected:
		r.Totals.Detected++
	case ClassDegraded:
		r.Totals.Degraded++
	case ClassPerfOnly:
		r.Totals.PerfOnly++
	case ClassSilent:
		r.Totals.Silent++
	case ClassPanic:
		r.Totals.Panics++
	}
	if rr.Error != "" {
		r.Totals.Errors++
	}
}

// RunReport records one workload × variant × site run.
type RunReport struct {
	Workload string `json:"workload"`
	Variant  string `json:"variant"`
	Site     Site   `json:"site"`
	Seed     uint64 `json:"seed"` // the derived per-run RNG seed

	FaultsInjected int    `json:"faults_injected"`
	Violations     int    `json:"violations"` // violations surfaced during the run
	Accounted      uint64 `json:"accounted"`  // explicit degradation accounting (quarantines, evictions)
	Cycles         uint64 `json:"cycles"`
	Insts          uint64 `json:"insts"`

	Class Class  `json:"class"`
	Error string `json:"error,omitempty"` // structured simulator error, if the run ended in one
}

// Totals aggregates a campaign.
type Totals struct {
	Runs     int `json:"runs"`
	Faults   int `json:"faults"`
	Detected int `json:"detected"`
	Degraded int `json:"degraded"`
	PerfOnly int `json:"perf_only"`
	Silent   int `json:"silent"`
	Panics   int `json:"panics"`
	Errors   int `json:"errors"`
}

// Report is the campaign's resilience report. It contains no timestamps
// and only deterministically ordered data, so equal seeds marshal to
// byte-identical JSON.
type Report struct {
	Schema    string   `json:"schema"`
	Seed      uint64   `json:"seed"`
	Workloads []string `json:"workloads"`
	Variants  []string `json:"variants"`
	Sites     []Site   `json:"sites"`

	Runs   []RunReport `json:"runs"`
	Totals Totals      `json:"totals"`
	Pass   bool        `json:"pass"`
}

// JSON marshals the report with stable indentation and a trailing newline.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DeriveSeed mixes a campaign seed with run coordinates so every run gets
// an independent but reproducible RNG stream. Exported for the fabric
// chaos harness (internal/fabric), which derives its per-worker fault
// streams the same way this package derives per-cell streams.
func DeriveSeed(seed uint64, parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return seed ^ h.Sum64()
}

// deriveSeed is the internal spelling, kept for the call sites predating
// the export.
func deriveSeed(seed uint64, parts ...string) uint64 {
	return DeriveSeed(seed, parts...)
}

// Run executes the campaign and returns its report. Configuration errors
// (unknown workload/variant) are returned as errors; faults, panics, and
// simulator errors inside runs are captured in the report instead.
func Run(cfg Config) (*Report, error) {
	cfg.setDefaults()

	for _, w := range cfg.Workloads {
		if workload.ByName(w) == nil {
			return nil, fmt.Errorf("faultinject: unknown workload %q", w)
		}
	}
	for _, v := range cfg.Variants {
		if _, ok := decode.ParseVariant(v); !ok {
			return nil, fmt.Errorf("faultinject: unknown variant %q", v)
		}
	}
	known := make(map[Site]bool)
	for _, s := range AllSites() {
		known[s] = true
	}
	for _, s := range cfg.Sites {
		if !known[s] {
			return nil, fmt.Errorf("faultinject: unknown site %q", s)
		}
	}

	rep := &Report{
		Schema:    "chexfault-report/v1",
		Seed:      cfg.Seed,
		Workloads: cfg.Workloads,
		Variants:  cfg.Variants,
		Sites:     cfg.Sites,
	}
	for _, w := range cfg.Workloads {
		for _, v := range cfg.Variants {
			for _, site := range cfg.Sites {
				rep.add(runOne(&cfg, w, v, site))
			}
		}
	}
	rep.Pass = rep.Totals.Silent == 0 && rep.Totals.Panics == 0 && rep.Totals.Errors == 0
	return rep, nil
}

// runOne executes a single workload × variant × site run with a panic
// guard: a panic anywhere inside the simulator is itself a fail-closed
// contract breach and is classified, not propagated.
func runOne(cfg *Config, w, v string, site Site) (rr RunReport) {
	rr = RunReport{Workload: w, Variant: v, Site: site,
		Seed: deriveSeed(cfg.Seed, w, v, string(site))}
	defer func() {
		if p := recover(); p != nil {
			rr.Class = ClassPanic
			rr.Error = fmt.Sprintf("panic: %v", p)
		}
	}()

	rng := rand.New(rand.NewSource(int64(rr.Seed)))
	prof := workload.ByName(w)
	prog, err := prof.Build(cfg.Scale)
	if err != nil {
		rr.Class = ClassSilent
		rr.Error = err.Error()
		return rr
	}

	variant, _ := decode.ParseVariant(v)
	pcfg := pipeline.DefaultConfig()
	pcfg.Variant = variant
	pcfg.WarmupInsts = prof.SetupInsts()
	pcfg.MaxInsts = cfg.MaxInsts + pcfg.WarmupInsts
	pcfg.MaxCycles = cfg.MaxCycles
	harts := 1
	if prof.Threads > 0 {
		harts = prof.Threads
	}
	sim, err := pipeline.NewSim(prog, pcfg, harts)
	if err != nil {
		rr.Class = ClassSilent
		rr.Error = err.Error()
		return rr
	}

	// Injection loop: one fault attempt per batch of scheduling rounds
	// once the warmup region is past, until the quota is met or the run
	// drains. All randomness comes from the per-run RNG, so the schedule
	// is a pure function of the seed.
	const roundsPerBatch = 200
	flipped := make(map[core.PID]bool)
	var simErr error
	for {
		done, err := sim.Step(roundsPerBatch)
		if err != nil {
			simErr = err
			break
		}
		if rr.FaultsInjected < cfg.FaultsPerRun && sim.M.TotalInsts() >= pcfg.WarmupInsts {
			rr.FaultsInjected += inject(sim, site, rng, harts, flipped)
		}
		if done {
			break
		}
	}

	// End-of-run audit sweep: latent capability corruption that no check
	// reached is quarantined (and accounted) here rather than lingering.
	sim.Table.Audit()

	rr.Violations = len(sim.Violations)
	res := sim.Result()
	rr.Cycles = res.Cycles
	rr.Insts = sim.M.TotalInsts()
	if simErr != nil {
		rr.Error = simErr.Error()
	}

	switch site {
	case SiteCapTable:
		// Every injected table fault must be accounted as a quarantine or
		// eviction (flips target distinct PIDs, so counts line up 1:1).
		rr.Accounted = sim.Table.Stats.Degraded
		switch {
		case rr.Accounted < uint64(rr.FaultsInjected):
			rr.Class = ClassSilent
		case rr.Violations > 0:
			rr.Class = ClassDetected
		case rr.FaultsInjected > 0:
			rr.Class = ClassDegraded
		default:
			rr.Class = ClassPerfOnly
		}
	default:
		// Cache drops, predictor corruption, and context-switch loss hit
		// performance-only state: the shadow tables stay authoritative and
		// predictions are advisory. Any violation here would be a spurious
		// enforcement action — a contract breach.
		if rr.Violations == 0 {
			rr.Class = ClassPerfOnly
		} else {
			rr.Class = ClassSilent
		}
	}
	return rr
}

// inject applies one fault of the given site family, returning how many
// faults were actually placed (0 when the target structure is empty).
func inject(sim *pipeline.Sim, site Site, rng *rand.Rand, harts int, flipped map[core.PID]bool) int {
	switch site {
	case SiteCapTable:
		// Pick a PID not faulted before: two flips in one entry could
		// cancel in the parity fold and evade the integrity check, which
		// would be an artifact of the campaign rather than of the design.
		var fresh []core.PID
		for _, pid := range sim.Table.PIDs() {
			if !flipped[pid] {
				fresh = append(fresh, pid)
			}
		}
		if len(fresh) == 0 {
			return 0
		}
		pid := fresh[rng.Intn(len(fresh))]
		flipped[pid] = true
		if rng.Intn(4) == 0 {
			if sim.Table.Evict(pid) {
				return 1
			}
			return 0
		}
		if sim.Table.FlipBit(pid, uint(rng.Intn(128))) {
			return 1
		}
		return 0
	case SiteCapCache:
		if _, ok := sim.InjectCapCacheDrop(rng.Intn(harts), rng.Intn(1<<16)); ok {
			return 1
		}
		return 0
	case SiteAliasCache:
		if _, ok := sim.InjectAliasCacheDrop(rng.Intn(harts), rng.Intn(1<<16)); ok {
			return 1
		}
		return 0
	case SitePredictor:
		if _, ok := sim.InjectPredictorCorrupt(rng.Intn(harts), rng.Intn(1<<16)); ok {
			return 1
		}
		return 0
	case SiteCtxSwitch:
		sim.OnContextSwitchIn(uint64(500 + rng.Intn(1500)))
		return 1
	}
	return 0
}
