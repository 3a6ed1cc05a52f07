package pipeline

import (
	"chex86/internal/isa"
)

// uopEntry is one memoized static translation: the micro-op expansion a
// macro-op decodes to before any per-dynamic-instance state (effective
// addresses, tracker-dependent check injection, token rewiring) is
// applied. Entries are immutable after insertion — consumers copy the
// expansion into a per-core scratch buffer and mutate only the copy.
type uopEntry struct {
	// addr tags the slot with the instruction address it memoizes (the
	// cache is direct-mapped; a tag mismatch is a conflict miss).
	addr  uint64
	valid bool

	uops []isa.Uop

	// nativeUops is the pre-reroute native expansion length, replayed
	// into Decoder.Stats.NativeUops on every hit so results are
	// byte-identical with the cache on and off.
	nativeUops uint64

	// rerouted records that the translation was served from the writable
	// microcode RAM (a field update matched), replayed as
	// MSROMMacros/Rerouted statistics on hits.
	rerouted bool

	// gen is the microcode-RAM generation the translation was derived
	// under. A lookup under a different generation misses (the MSRAM
	// contents changed, so the memoized Microcode.Apply result is stale).
	gen uint64
}

// uopCache is the decoded-μop translation cache: the simulator's
// analogue of a decoded-stream buffer. It memoizes Decoder.Native +
// Microcode.Apply keyed by instruction address, direct-mapped over a
// power-of-two table sized to the program, so in practice every static
// instruction gets its own slot; the lookup is a shift, a mask, and two
// compares — this sits on the per-committed-instruction critical path.
// The variant is part of the key implicitly — the cache lives inside
// one Sim, whose variant is fixed — and the microcode-RAM generation is
// checked on every lookup, so installing or removing a field update
// invalidates exactly the translations that could have consulted the old
// MSRAM contents.
//
// Caching is sound because guest programs are static (no self-modifying
// code: the instruction at an address never changes) and both memoized
// stages are pure functions of the instruction and the Sim-wide MSRAM
// contents. So one table serves every hart of a Sim: a translation one
// core inserted is the one any other core would derive, and the cores
// step in lockstep on one goroutine. The cache must not change a single
// result byte; the decode-path statistics the memoized stages would have
// bumped are replayed into the looking-up core's decoder on each hit,
// and the cache's own counters are reported out of band
// (UopCacheStats), never in Result.
type uopCache struct {
	slots []uopEntry // a power of two of them

	hits          uint64
	misses        uint64
	invalidations uint64 // hits rejected because the MSRAM generation moved
}

// newUopCache returns an empty cache for a program of insts static
// instructions, with the next power of two at or above insts slots.
func newUopCache(insts int) *uopCache {
	n := 1
	for n < insts {
		n <<= 1
	}
	return &uopCache{slots: make([]uopEntry, n)}
}

func (uc *uopCache) slot(addr uint64) *uopEntry {
	// Instruction addresses are 4-byte aligned in this ISA; drop the
	// always-zero low bits so consecutive instructions map to
	// consecutive slots.
	return &uc.slots[(addr>>2)&uint64(len(uc.slots)-1)]
}

// lookup returns the memoized translation for the instruction at addr
// under the given microcode generation. A generation mismatch counts as
// an invalidation and reports a miss (the slot is overwritten by the
// subsequent insert).
func (uc *uopCache) lookup(addr, gen uint64) *uopEntry {
	e := uc.slot(addr)
	if e.valid && e.addr == addr {
		if e.gen == gen {
			uc.hits++
			return e
		}
		uc.invalidations++
		e.valid = false
	}
	uc.misses++
	return nil
}

// insert memoizes a freshly derived translation. The expansion is copied:
// the caller's slice is scratch that the EA-fill and instrumentation
// stages mutate per dynamic instance, while the cached copy stays
// immutable for the entry's lifetime.
func (uc *uopCache) insert(addr, gen uint64, uops []isa.Uop, nativeUops uint64, rerouted bool) {
	e := uc.slot(addr)
	cp := e.uops[:0] // a conflict-evicted slot's backing array is reusable
	if cap(cp) < len(uops) {
		cp = make([]isa.Uop, 0, len(uops))
	}
	cp = append(cp, uops...)
	*e = uopEntry{addr: addr, valid: true, uops: cp, nativeUops: nativeUops, rerouted: rerouted, gen: gen}
}

// UopCacheStats reports μop-translation-cache activity. It is surfaced
// separately from Result on purpose: Result must be byte-identical with
// the cache on and off, so host-side cache telemetry cannot live there.
type UopCacheStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Entries       int
}

// HitRate returns hits over all lookups (0 when no lookups happened).
func (s UopCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// UopCacheStats reports the activity of the Sim's μop cache, which all
// its cores share.
func (s *Sim) UopCacheStats() UopCacheStats {
	if s.uc == nil {
		return UopCacheStats{}
	}
	st := UopCacheStats{Hits: s.uc.hits, Misses: s.uc.misses, Invalidations: s.uc.invalidations}
	for i := range s.uc.slots {
		if s.uc.slots[i].valid {
			st.Entries++
		}
	}
	return st
}
