// Package bench is the chexmark benchmark: four workloads that measure the
// simulator end to end (simulated slowdown, set-up time, memory) and, in a
// traced run, layer by layer, host Kinst/s, campaign cells/s and cell
// latency included. It times calls into the repository's public functions from
// outside and never edits or configures the code it measures beyond the
// default configuration, so deleting or replacing an internal layer can be
// measured without touching the benchmark. See README.md.
//
// The package never reads the wall clock: every entry point takes a Clock,
// and only cmd/chexmark binds the real one.
package bench

import (
	"fmt"
	"hash/fnv"

	"chex86/internal/decode"
	"chex86/internal/fabric"
	"chex86/internal/workload"
)

// Clock is the benchmark's time source: Now in nanoseconds on an arbitrary
// epoch, After for the fabric's sleeps.
type Clock = fabric.Clock

// Workloads names the benchmark's workloads in the order BENCHMARK.json
// lists them.
var Workloads = []string{"spec-ptr", "stream-fp", "elide-all", "fabric-mix"}

// simWorkload is a workload that simulates a fixed program list directly.
type simWorkload struct {
	programs []string
	scale    float64 // Profile.Build scale: multiplies each program's round count
	elide    bool    // run prediction with the checker-verified elision map
}

// simWorkloads sizes each program list so one round (every program under
// both variants) takes about one to three seconds on a 2-core host, which
// gives a 20 s run 7 to 20 rounds for medians and 100 to 200 cells for the
// latency percentiles.
var simWorkloads = []struct {
	name string
	w    simWorkload
}{
	// The pointer-chasing, allocation-churning SPEC programs, including the
	// paper's Fig. 6 outliers: protected host time goes to the pointer
	// tracker, the alias predictor, the capability and alias caches and the
	// injected check micro-ops.
	{"spec-ptr", simWorkload{programs: []string{"mcf", "xalancbmk", "leela", "perlbench"}, scale: 0.5}},
	// FP streaming over large grids with almost no allocations: time goes to
	// emulation, decode and the cache hierarchy. The control for tracker and
	// check changes, which should show nothing here.
	{"stream-fp", simWorkload{programs: []string{"lbm", "nab", "blackscholes"}, scale: 0.25}},
	// Every catalog program with its static analysis and proof checking in
	// set-up, and the verified elision map installed, so elision moves the
	// simulated check count.
	{"elide-all", simWorkload{programs: workload.Names(), scale: 0.1, elide: true}},
}

func simWorkloadFor(name string) (simWorkload, bool) {
	for _, sw := range simWorkloads {
		if sw.name == name {
			return sw.w, true
		}
	}
	return simWorkload{}, false
}

// variants are the two protection variants every sim workload compares:
// the insecure baseline and the paper's prediction-driven microcode design.
var variants = []decode.Variant{decode.VariantInsecure, decode.VariantMicrocodePrediction}

func variantName(v decode.Variant) string {
	if v == decode.VariantInsecure {
		return "insecure"
	}
	return "prediction"
}

// stream is a seeded xorshift64 generator. Every seeded choice the
// benchmark makes draws from one, keyed by the seed and a label, so equal
// seeds give equal inputs without the shared global math/rand stream.
type stream uint64

func newStream(seed uint64, label string) *stream {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	s := stream(h.Sum64() | 1)
	return &s
}

func (s *stream) next() uint64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = stream(x)
	return x
}

// float returns a draw in [0, 1).
func (s *stream) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// intn returns a draw in [0, n).
func (s *stream) intn(n int) int { return int(s.next() % uint64(n)) }

// Held-out seeds scale each profile knob by a factor drawn from
// [factorLo, factorHi]. The range is narrow on purpose: a seed must change
// each program's shape (allocation count, churn, working subset, chase
// depth) while leaving its set-up time and memory within a third of their
// bounds of the other seeds'.
const factorLo, factorHi = 0.95, 1.05

// Profile returns the named catalog profile as seed generates it: the
// committed profile for seed 0, and for any other seed one whose MaxLive,
// ChurnPerRound, PhaseWindow and ChaseLen are each scaled by their own
// seeded factor. It returns nil for an unknown name.
func Profile(name string, seed uint64) *workload.Profile {
	p := workload.ByName(name)
	if p == nil || seed == 0 {
		return p
	}
	s := newStream(seed, "profile/"+name)
	scale := func(v int) int {
		f := factorLo + (factorHi-factorLo)*s.float()
		return int(float64(v)*f + 0.5)
	}
	threads := p.Threads
	if threads < 1 {
		threads = 1
	}
	p.MaxLive = scale(p.MaxLive)
	if p.MaxLive < 2*threads {
		p.MaxLive = 2 * threads
	}
	p.ChurnPerRound = scale(p.ChurnPerRound)
	window := p.PhaseWindow
	if window <= 0 {
		window = 96 // the generator's default working subset
	}
	p.PhaseWindow = scale(window)
	if p.Chase {
		p.ChaseLen = scale(p.ChaseLen)
		if p.ChaseLen < 1 {
			p.ChaseLen = 1
		}
	}
	return p
}

func harts(p *workload.Profile) int {
	if p.Threads > 0 {
		return p.Threads
	}
	return 1
}
