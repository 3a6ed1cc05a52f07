// Package pipeline implements the out-of-order timing model of the
// simulated machine (Table III) and orchestrates the full CHEx86 stack on
// top of the functional emulator: branch prediction, CISC→µop decode,
// microcode customization, speculative pointer tracking with alias
// prediction, capability generation/validation/free, and the memory
// hierarchy — for every protection variant evaluated in the paper.
package pipeline

import (
	"encoding/json"
	"fmt"
	"strings"

	"chex86/internal/cache"
	"chex86/internal/core"
	"chex86/internal/decode"
	"chex86/internal/isa"
)

// Config describes the simulated machine and protection scheme.
type Config struct {
	// Table III baseline processor parameters.
	FrequencyGHz  float64
	FetchWidth    int // fused µops (macro-ops) per cycle
	IssueWidth    int // unfused µops per cycle
	CommitWidth   int // unfused µops per cycle
	ROBSize       int
	IQSize        int
	LQSize        int
	SQSize        int
	IntALU        int
	IntMult       int
	FPALU         int
	SIMD          int
	LoadPorts     int
	StorePorts    int
	BranchUnits   int
	FrontendDepth uint64 // fetch-to-dispatch depth in cycles
	RedirectCost  uint64 // additional redirect penalty on squash

	// Memory hierarchy.
	L1ISizeKB   int
	L1IWays     int
	L1DSizeKB   int
	L1DWays     int
	L2SizeKB    int
	L2Ways      int
	LLCSizeKB   int
	LLCWays     int
	LineSize    uint64
	L1Latency   uint64
	L2Latency   uint64
	LLCLatency  uint64
	DRAMLatency uint64
	DRAMCycLine uint64 // DRAM channel occupancy per line (bandwidth limit)
	TLBEntries  int
	TLBWays     int
	TLBWalkCost uint64

	// CHEx86 structures.
	ShadowCacheKB     int // dedicated shadow-structure cache (0 disables)
	CapCacheEntries   int // 64 in the default design (Figure 7 sweeps 128)
	AliasCacheEntries int // 256 (Figure 7 sweeps 512)
	AliasVictim       int // 32-entry victim cache
	PredictorEntries  int // 512 (Figure 8 sweeps 1024/2048)
	MaxAllocSize      uint64

	// Protection scheme and context-sensitivity policy.
	Variant decode.Variant
	Context core.ContextPolicy

	// ElideChecks enables proof-carrying capability-check elision: memory
	// micro-ops whose site appears in the elision map installed with
	// Sim.SetElisionMap skip check injection (and the check's functional
	// validation), keeping every tracker side effect. Off by default, and
	// inert without an installed map — the fail-closed contract is that
	// only independently verified proven-safe sites are ever marked.
	ElideChecks bool

	// ElisionDigest is the content digest of the installed elision map
	// (internal/elide Report.Digest). It has no simulation effect of its
	// own; it exists so content-addressed result caching (the campaign
	// subsystem hashes CanonicalJSON) can never serve a result across
	// differing elision maps.
	ElisionDigest string

	// ElisionCtxK is the call-string depth the installed elision map was
	// built at (0 means the default k = 2). The runtime always folds the
	// committed call/ret stream at k = 2 and re-truncates the live context
	// with CallCtx.Limit to form the probe key, so maps built at any
	// k ≤ 2 are consulted correctly.
	ElisionCtxK int

	// EnableChecker runs the hardware checker co-processor alongside
	// execution (the offline rule-validation mode of Section V-A).
	EnableChecker bool

	// StopOnViolation aborts simulation at the first capability violation
	// (security-evaluation mode). When false, violations are recorded and
	// execution continues.
	StopOnViolation bool

	// MaxInsts bounds the simulated macro-op count (0 = run to program
	// completion).
	MaxInsts uint64

	// MaxCycles bounds the simulated cycle count (0 = unlimited). A run
	// that exceeds it — a livelocked guest that never drains — is killed
	// with an ErrCycleLimit *SimError carrying a pipeline snapshot, instead
	// of spinning forever.
	MaxCycles uint64

	// StallCycles is the forward-progress watchdog window: a hart whose
	// front-end has advanced StallCycles cycles past its last commit
	// without retiring anything trips an ErrHang *SimError (0 disables
	// the watchdog).
	StallCycles uint64

	// WarmupInsts excludes the first N macro-ops from the reported timing
	// and statistics (the SimPoint-style measurement the paper uses:
	// representative regions, not program setup). Simulation state —
	// caches, predictors, shadow tables — is fully warmed by the excluded
	// prefix.
	WarmupInsts uint64

	// Ablation knobs (not part of the paper's design; used by the
	// ablation benches to attribute overhead to individual mechanisms).

	// IdealShadowLatency makes shadow capability-table accesses free on
	// capability-cache misses (the table contributes traffic only).
	IdealShadowLatency bool

	// NoAliasWalks disables shadow alias-table walk traffic and latency on
	// alias-cache misses (misprediction detection becomes free).
	NoAliasWalks bool

	// NoPrefetch disables the streaming prefetcher in the memory
	// hierarchy.
	NoPrefetch bool

	// NoUopCache disables the decoded-μop translation cache, forcing a
	// full Decoder.Native + Microcode.Apply per committed instruction.
	// It is a host-performance knob, not a simulated-machine parameter:
	// the cache is required to produce byte-identical results either way
	// (the differential gate asserts this), so the knob is excluded from
	// CanonicalJSON — and therefore from campaign cache keys — via the
	// json:"-" tag.
	NoUopCache bool `json:"-"`
}

// DefaultConfig returns the Table III machine with the default CHEx86
// structure sizes and the microcode prediction-driven variant.
func DefaultConfig() Config {
	return Config{
		FrequencyGHz:  3.4,
		FetchWidth:    4,
		IssueWidth:    6,
		CommitWidth:   8,
		ROBSize:       224,
		IQSize:        64,
		LQSize:        72,
		SQSize:        56,
		IntALU:        6,
		IntMult:       1,
		FPALU:         3,
		SIMD:          3,
		LoadPorts:     2,
		StorePorts:    1,
		BranchUnits:   2,
		FrontendDepth: 5,
		RedirectCost:  12,

		L1ISizeKB:   32,
		L1IWays:     8,
		L1DSizeKB:   32,
		L1DWays:     8,
		L2SizeKB:    256,
		L2Ways:      8,
		LLCSizeKB:   8192,
		LLCWays:     16,
		LineSize:    64,
		L1Latency:   4,
		L2Latency:   12,
		LLCLatency:  40,
		DRAMLatency: 200,
		DRAMCycLine: 5, // ~43 GB/s at 3.4 GHz with 64-B lines
		TLBEntries:  64,
		TLBWays:     4,
		TLBWalkCost: 20,

		ShadowCacheKB:     32,
		CapCacheEntries:   64,
		AliasCacheEntries: 256,
		AliasVictim:       32,
		PredictorEntries:  512,
		MaxAllocSize:      1 << 30,

		Variant: decode.VariantMicrocodePrediction,
		Context: core.Always(),
	}
}

// ctxK returns the effective call-string depth for elision probes
// (ElisionCtxK, defaulting to k = 2).
func (c *Config) ctxK() int {
	if c.ElisionCtxK == 0 {
		return 2
	}
	return c.ElisionCtxK
}

// CanonicalJSON renders the configuration as deterministic bytes for
// content addressing: every field of Config is plain data (no maps, no
// closures), so encoding/json emits struct fields in declaration order and
// equal configurations always marshal identically. The campaign subsystem
// hashes this into its cache key, so adding a field changes the keys of
// every configuration — which is exactly right: a new knob is a new
// machine.
func (c Config) CanonicalJSON() []byte {
	data, err := json.Marshal(c)
	if err != nil {
		// Config contains only scalars, strings and Region slices; a
		// marshal failure is a programming error, not an input error.
		panic(fmt.Sprintf("pipeline: config marshal: %v", err))
	}
	return data
}

// shadowWays is the associativity of the dedicated shadow-structure cache.
const shadowWays = 8

// fuCounts returns the functional-unit pool sizes indexed by FU class.
func (c *Config) fuCounts() [isa.NumFUClasses]int {
	return [isa.NumFUClasses]int{
		isa.FUIntALU:     c.IntALU,
		isa.FUIntMult:    c.IntMult,
		isa.FUFPALU:      c.FPALU,
		isa.FUSIMD:       c.SIMD,
		isa.FULoad:       c.LoadPorts,
		isa.FUStore:      c.StorePorts,
		isa.FUBranchUnit: c.BranchUnits,
	}
}

// validate rejects machine configurations that the structure constructors
// would otherwise panic on (cache geometry constraints, per-cycle
// bandwidth counters that hold 1–255) plus degenerate pipeline widths, so
// NewSim can fail with a structured error instead.
func (c *Config) validate(harts int) error {
	fail := func(format string, args ...any) error {
		return &SimError{Kind: ErrConfig, Msg: fmt.Sprintf(format, args...)}
	}
	if harts <= 0 {
		return fail("hart count %d must be positive", harts)
	}
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 {
		return fail("fetch/issue/commit widths must be positive (%d/%d/%d)",
			c.FetchWidth, c.IssueWidth, c.CommitWidth)
	}
	if c.IssueWidth > 255 || c.CommitWidth > 255 {
		return fail("issue/commit widths must be at most 255 (%d/%d)", c.IssueWidth, c.CommitWidth)
	}
	for f, n := range c.fuCounts() {
		if n < 1 || n > 255 {
			return fail("%s pool size %d must be 1–255", isa.FUClass(f), n)
		}
	}
	if c.ROBSize <= 0 || c.IQSize <= 0 || c.LQSize <= 0 || c.SQSize <= 0 {
		return fail("ROB/IQ/LQ/SQ sizes must be positive (%d/%d/%d/%d)",
			c.ROBSize, c.IQSize, c.LQSize, c.SQSize)
	}
	if c.LineSize < cache.MinLineSize || c.LineSize&(c.LineSize-1) != 0 {
		return fail("line size %d must be a power of two of at least %d bytes", c.LineSize, cache.MinLineSize)
	}
	type geometry struct {
		name         string
		sizeKB, ways int
	}
	caches := []geometry{
		{"L1I", c.L1ISizeKB, c.L1IWays},
		{"L1D", c.L1DSizeKB, c.L1DWays},
		{"L2", c.L2SizeKB, c.L2Ways},
		{"LLC", c.LLCSizeKB, c.LLCWays},
	}
	if c.ShadowCacheKB != 0 { // 0 disables the shadow cache
		caches = append(caches, geometry{"shadow cache", c.ShadowCacheKB, shadowWays})
	}
	for _, cc := range caches {
		if cc.sizeKB <= 0 || cc.ways <= 0 {
			return fail("%s geometry must be positive (%dKB, %d ways)", cc.name, cc.sizeKB, cc.ways)
		}
		lines := cc.sizeKB * 1024 / int(c.LineSize)
		if lines == 0 || lines%cc.ways != 0 {
			return fail("%s: %d lines not divisible by %d ways", cc.name, lines, cc.ways)
		}
	}
	if c.CapCacheEntries <= 0 {
		return fail("capability cache entries %d must be positive", c.CapCacheEntries)
	}
	if c.AliasCacheEntries <= 0 || c.AliasCacheEntries%2 != 0 {
		return fail("alias cache entries %d must be positive and even (2-way)", c.AliasCacheEntries)
	}
	if c.PredictorEntries <= 0 {
		return fail("predictor entries %d must be positive", c.PredictorEntries)
	}
	if c.TLBEntries <= 0 || c.TLBWays <= 0 || c.TLBEntries%c.TLBWays != 0 {
		return fail("TLB: %d entries not divisible by %d ways", c.TLBEntries, c.TLBWays)
	}
	return nil
}

// FormatTableIII renders the configuration as the paper's Table III.
func (c *Config) FormatTableIII() string {
	var b strings.Builder
	b.WriteString("TABLE III: HARDWARE CONFIGURATION OF THE SIMULATED SYSTEM\n")
	row := func(k1, v1, k2, v2 string) {
		fmt.Fprintf(&b, "  %-16s %-22s %-12s %s\n", k1, v1, k2, v2)
	}
	row("Frequency", fmt.Sprintf("%.1f GHz", c.FrequencyGHz), "I cache", fmt.Sprintf("%d KB, %d way", c.L1ISizeKB, c.L1IWays))
	row("Fetch width", fmt.Sprintf("%d fused uops", c.FetchWidth), "D cache", fmt.Sprintf("%d KB, %d way", c.L1DSizeKB, c.L1DWays))
	row("Issue width", fmt.Sprintf("%d unfused uops", c.IssueWidth), "ROB size", fmt.Sprintf("%d entries", c.ROBSize))
	row("IQ", fmt.Sprintf("%d entries", c.IQSize), "LQ/SQ size", fmt.Sprintf("%d/%d entries", c.LQSize, c.SQSize))
	row("Branch Predictor", "LTAGE", "BTB size", "4096 entries")
	row("RAS size", "64 entries", "Functional",
		fmt.Sprintf("Int ALU (%d) / Mult (%d),", c.IntALU, c.IntMult))
	row("Cap cache", fmt.Sprintf("%d entries", c.CapCacheEntries), "Units",
		fmt.Sprintf("FPALU (%d) / SIMD (%d)", c.FPALU, c.SIMD))
	row("Alias cache", fmt.Sprintf("%d+%d entries", c.AliasCacheEntries, c.AliasVictim),
		"Alias pred.", fmt.Sprintf("%d entries", c.PredictorEntries))
	return b.String()
}
