// Package campaign is the shared execution substrate for the paper's
// evaluation sweeps: it turns a (workload, SimConfig, mode) tuple into a
// schedulable Job, executes jobs on a worker pool sized to GOMAXPROCS with
// per-job panic isolation and context cancellation, and memoizes completed
// results in a content-addressed cache keyed by a stable hash of (workload
// program bytes, machine configuration, rule-database export), so
// repeated sweeps over unchanged configurations are near-free.
//
// The paper's evaluation (Section VII) is a large campaign of independent
// simulations: 14 workloads × protection variants × Table-III/IV parameter
// sweeps. Campaigns enter through chexd's fabric coordinator
// (internal/fabric), which runs each cell on a chexworker's pool or, with
// no workers registered, on its own; both pools are this package's.
//
// Determinism contract: everything this package serializes — Spec, Result,
// cache entries — is byte-stable (struct fields in declaration order, no
// map iteration feeding a writer, no wall-clock reads). The chexvet
// determinism gate holds the package to that with zero waivers; wall-time
// measurement is injected through Options.Clock and lives in the runtime
// Job record, never in the cached payload.
package campaign

import (
	"fmt"

	"chex86/internal/faultinject"
	"chex86/internal/pipeline"
	"chex86/internal/workload"
)

// Mode selects a job's executor.
type Mode string

const (
	// ModeBench runs one workload under one machine configuration with the
	// experiment harness's measurement policy and records timing results.
	ModeBench Mode = "bench"
	// ModeFault runs one fault-injection campaign cell (workload × variant
	// × site) and records its resilience report.
	ModeFault Mode = "fault"
)

// Spec is the content of a job: what to simulate. Every field that changes
// the simulation outcome is part of the cache key (see Key).
type Spec struct {
	Mode Mode `json:"mode"`

	// Bench mode.
	Workload  string           `json:"workload,omitempty"`
	Config    *pipeline.Config `json:"config,omitempty"` // nil = pipeline.DefaultConfig
	Scale     float64          `json:"scale,omitempty"`  // 0 = 1.0
	MaxInsts  uint64           `json:"maxInsts,omitempty"`
	MaxCycles uint64           `json:"maxCycles,omitempty"`

	// Fault mode: one campaign cell (see faultinject.Config.Cells).
	Fault *faultinject.Config `json:"fault,omitempty"`
}

// BenchSpec builds a bench-mode spec for one workload under one config.
func BenchSpec(workloadName string, cfg pipeline.Config, scale float64, maxInsts, maxCycles uint64) Spec {
	c := cfg
	return Spec{
		Mode:      ModeBench,
		Workload:  workloadName,
		Config:    &c,
		Scale:     scale,
		MaxInsts:  maxInsts,
		MaxCycles: maxCycles,
	}
}

// FaultSpec builds a fault-mode spec for one campaign cell.
func FaultSpec(cell faultinject.Config) Spec {
	c := cell.Normalized()
	return Spec{Mode: ModeFault, Fault: &c}
}

// validate rejects specs the executors could not run.
func (s *Spec) validate() error {
	switch s.Mode {
	case ModeBench:
		if s.Workload == "" {
			return fmt.Errorf("campaign: bench spec needs a workload")
		}
		if workload.ByName(s.Workload) == nil {
			return fmt.Errorf("campaign: unknown workload %q", s.Workload)
		}
	case ModeFault:
		if s.Fault == nil {
			return fmt.Errorf("campaign: fault spec needs a fault config")
		}
	default:
		return fmt.Errorf("campaign: unknown mode %q", s.Mode)
	}
	return nil
}

// config resolves the effective machine configuration of a bench spec.
func (s *Spec) config() pipeline.Config {
	if s.Config != nil {
		return *s.Config
	}
	return pipeline.DefaultConfig()
}

// scale resolves the effective workload scale.
func (s *Spec) scale() float64 {
	if s.Scale > 0 {
		return s.Scale
	}
	return 1.0
}

// Result is a job's cached payload: the deterministic outcome of the
// simulation, and nothing else. Runtime facts — wall time, whether the
// result came from the cache — live on the Job, because two executions of
// the same Spec must produce byte-identical Results for the
// content-addressed cache to be sound.
type Result struct {
	Schema   string `json:"schema"` // "chex-campaign-result/v1"
	Mode     Mode   `json:"mode"`
	Workload string `json:"workload,omitempty"`
	Variant  string `json:"variant,omitempty"`

	Bench *BenchResult        `json:"bench,omitempty"`
	Fault *faultinject.Report `json:"fault,omitempty"`
}

// ResultSchema versions the cached-result payload.
const ResultSchema = "chex-campaign-result/v1"

// BenchResult is the byte-stable extract of one pipeline run: the scalar
// statistics every report and sweep consumes. Fields marshal in
// declaration order; there are no maps.
type BenchResult struct {
	Cycles       uint64  `json:"cycles"`
	Insts        uint64  `json:"insts"` // measured macro-ops (post-warmup)
	NativeUops   uint64  `json:"nativeUops"`
	InjectedUops uint64  `json:"injectedUops"`
	IPC          float64 `json:"ipc"`
	UopExpansion float64 `json:"uopExpansion"`

	CapMissRate   float64 `json:"capMissRate"`
	AliasMissRate float64 `json:"aliasMissRate"`
	MispredRate   float64 `json:"mispredRate"`
	SquashPct     float64 `json:"squashPct"`

	DRAMBytes  uint64 `json:"dramBytes"`
	UserRSS    uint64 `json:"userRSS"`
	ShadowRSS  uint64 `json:"shadowRSS"`
	Violations int    `json:"violations"`
}

// benchResult extracts the stable scalars from a pipeline result.
func benchResult(r *pipeline.Result) *BenchResult {
	b := &BenchResult{
		Cycles:        r.Cycles,
		Insts:         r.MacroInsts,
		NativeUops:    r.NativeUops,
		InjectedUops:  r.InjectedUops,
		UopExpansion:  r.UopExpansion(),
		CapMissRate:   r.CapCache.MissRate(),
		AliasMissRate: r.AliasCache.MissRate(),
		MispredRate:   r.Predictor.MispredictionRate(),
		SquashPct:     r.SquashPct(),
		DRAMBytes:     r.DRAMBytes,
		UserRSS:       r.UserRSS,
		ShadowRSS:     r.ShadowRSS,
		Violations:    len(r.Violations),
	}
	if r.Cycles > 0 {
		b.IPC = float64(r.MacroInsts) / float64(r.Cycles)
	}
	return b
}
