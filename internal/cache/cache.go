// Package cache provides the cache models used by the simulator: a
// line-granular set-associative cache with LRU replacement, write-back and
// write-allocate policies for the memory hierarchy (L1I/L1D/L2/LLC), and a
// key-granular cache used to model the CHEx86 in-processor capability cache
// and spilled-pointer alias cache (with its victim cache).
package cache

import (
	"fmt"
	"math/bits"

	"chex86/internal/mem"
)

// Stats aggregates cache behavior.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Invals     uint64
}

// Accesses returns total lookups.
func (s *Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns the fraction of lookups that missed (0 if no accesses).
func (s *Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses) / float64(a)
}

// line is one cache way in 16 bytes: the tag word holds the line address
// (addr / LineSize) in bits 0–60 and the valid, dirty and prefetched flags
// in bits 63, 62 and 61; lru is the way's last-access stamp. A line size
// of at least MinLineSize keeps bits 61–63 of every line address clear.
type line struct {
	tag uint64
	lru uint64
}

const (
	lineValid = 1 << 63
	lineDirty = 1 << 62
	linePF    = 1 << 61 // filled by the prefetcher and not yet demand-hit

	// lineKeyMask keeps the bits a lookup compares: line address and valid.
	lineKeyMask = ^uint64(lineDirty | linePF)
	// lineAddrMask keeps the line address alone.
	lineAddrMask = linePF - 1

	// MinLineSize is the smallest line size NewLineCache accepts: below
	// 8 bytes a line address can reach the flag bits.
	MinLineSize = 8

	// chunkLines is the size of one chunk of line storage (256 KB). Sets
	// carve their blocks from the current chunk as they fill; a cache
	// smaller than a chunk gets chunks of its own size.
	chunkLines = 16384
)

// LineCache is a set-associative, write-back, write-allocate cache over
// memory lines.
type LineCache struct {
	Name     string
	LineSize uint64
	Latency  uint64 // hit latency in cycles

	// sets[s] holds the ways set s has filled, in fill order, and its
	// capacity is the block of storage the set owns: nil until the set's
	// first fill, then 1, 2, 4, ... lines up to ways. A run allocates
	// lines for the ways it fills, not for every way of every set it
	// touches.
	sets  [][]line
	ways  int
	chunk int    // lines per storage chunk, at least ways
	free  []line // uncarved rest of the current storage chunk
	clock uint64
	hitPF bool // last Access hit a prefetched line
	Stats Stats

	// lineShift/setMask are the fast-path index parameters, valid when
	// LineSize and sets are powers of two (every stock configuration):
	// index() is then a shift and a mask instead of two hardware
	// divisions — it runs several times per simulated memory access.
	lineShift int // log2(LineSize), or -1 when not a power of two
	setMask   int // sets-1, or -1 when not a power of two
}

// NewLineCache constructs a cache of sizeBytes capacity with the given
// associativity, line size (at least MinLineSize) and hit latency.
func NewLineCache(name string, sizeBytes, ways int, lineSize, latency uint64) *LineCache {
	if lineSize < MinLineSize {
		panic(fmt.Sprintf("cache %s: line size %d below %d bytes", name, lineSize, MinLineSize))
	}
	nlines := sizeBytes / int(lineSize)
	if nlines%ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", name, nlines, ways))
	}
	sets := nlines / ways
	c := &LineCache{Name: name, LineSize: lineSize, Latency: latency, ways: ways}
	c.sets = make([][]line, sets)
	c.chunk = min(nlines, max(ways, chunkLines))
	c.lineShift, c.setMask = -1, -1
	if lineSize&(lineSize-1) == 0 {
		c.lineShift = bits.TrailingZeros64(lineSize)
	}
	if sets > 0 && sets&(sets-1) == 0 {
		c.setMask = sets - 1
	}
	return c
}

func (c *LineCache) index(addr uint64) (set int, tag uint64) {
	var lineAddr uint64
	if c.lineShift >= 0 {
		lineAddr = addr >> uint(c.lineShift)
	} else {
		lineAddr = addr / c.LineSize
	}
	if c.setMask >= 0 {
		return int(lineAddr) & c.setMask, lineAddr
	}
	return int(lineAddr % uint64(len(c.sets))), lineAddr
}

// grow gives set one more way and returns its ways. A set whose block is
// full moves to a block twice the size (at most ways), carved from the
// current storage chunk; a new chunk starts when the current one cannot
// hold the block. The new way is the last and is zero.
func (c *LineCache) grow(set int) []line {
	ws := c.sets[set]
	if len(ws) == cap(ws) {
		n := min(max(1, 2*cap(ws)), c.ways)
		if len(c.free) < n {
			c.free = make([]line, c.chunk)
		}
		blk := c.free[:len(ws):n]
		c.free = c.free[n:]
		copy(blk, ws)
		ws = blk
	}
	ws = ws[:len(ws)+1]
	c.sets[set] = ws
	return ws
}

// find returns the resident line holding addr, or nil.
func (c *LineCache) find(addr uint64) *line {
	set, tag := c.index(addr)
	ws := c.sets[set]
	for w := range ws {
		if ws[w].tag&lineKeyMask == tag|lineValid {
			return &ws[w]
		}
	}
	return nil
}

// Access looks up addr; write marks the line dirty on hit or fill.
// It returns whether the access hit and, if a dirty line was evicted to
// make room, the evicted line's address and true.
func (c *LineCache) Access(addr uint64, write bool) (hit bool, wbAddr uint64, wb bool) {
	set, tag := c.index(addr)
	c.clock++
	key := tag | lineValid
	ws := c.sets[set]
	for w := range ws {
		if l := &ws[w]; l.tag&lineKeyMask == key {
			l.lru = c.clock
			c.hitPF = l.tag&linePF != 0
			l.tag &^= linePF
			if write {
				l.tag |= lineDirty
			}
			c.Stats.Hits++
			return true, 0, false
		}
	}
	c.hitPF = false
	c.Stats.Misses++
	// Fill: the first invalid way, else a new way while the set has
	// fewer than ways, else the LRU victim. Ways fill in order and only
	// Invalidate leaves a hole, so this is the way a cache holding every
	// way from the start would choose.
	victim := -1
	for w := range ws {
		if ws[w].tag&lineValid == 0 {
			victim = w
			break
		}
	}
	if victim < 0 && len(ws) < c.ways {
		ws = c.grow(set)
		victim = len(ws) - 1
	}
	if victim < 0 {
		victim = 0
		for w := 1; w < len(ws); w++ {
			if ws[w].lru < ws[victim].lru {
				victim = w
			}
		}
		c.Stats.Evictions++
		if ws[victim].tag&lineDirty != 0 {
			c.Stats.Writebacks++
			wb = true
			wbAddr = (ws[victim].tag & lineAddrMask) * c.LineSize
		}
	}
	if write {
		key |= lineDirty
	}
	ws[victim] = line{tag: key, lru: c.clock}
	return false, wbAddr, wb
}

// HitPrefetched reports whether the most recent Access hit a line that the
// prefetcher brought in (used to sustain streams).
func (c *LineCache) HitPrefetched() bool { return c.hitPF }

// MarkPrefetched flags the resident line containing addr as
// prefetcher-filled.
func (c *LineCache) MarkPrefetched(addr uint64) {
	if l := c.find(addr); l != nil {
		l.tag |= linePF
	}
}

// Contains reports whether addr is resident without updating LRU or stats.
func (c *LineCache) Contains(addr uint64) bool { return c.find(addr) != nil }

// Invalidate drops the line containing addr if resident.
func (c *LineCache) Invalidate(addr uint64) {
	if l := c.find(addr); l != nil {
		l.tag &^= lineValid
		c.Stats.Invals++
	}
}

// Hierarchy composes the per-core memory hierarchy. L2 and LLC may be
// shared between cores in multicore simulations (accesses are not
// concurrency-safe; the multicore pipeline steps cores in lockstep).
type Hierarchy struct {
	L1I *LineCache
	L1D *LineCache
	L2  *LineCache
	LLC *LineCache
	Ram *mem.DRAM

	// Lane is this hierarchy's DRAM requestor lane (core id).
	Lane int

	// Shadow is a small dedicated cache for privileged shadow-structure
	// lines (capability table, alias table) — the "shadow caches" the
	// paper lists among its microarchitectural optimizations. Without it,
	// streaming workload data keeps evicting the hot shadow lines from
	// the L2. Nil disables it.
	Shadow *LineCache

	// NoPrefetch disables the next-line prefetcher (modeled after the L1
	// streamer: a demand miss also pulls the following line, charging
	// traffic but not demand latency).
	NoPrefetch bool

	Prefetches uint64
}

// AccessData performs a data access and returns its total latency in
// cycles, charging DRAM traffic for LLC misses and dirty writebacks. A
// streaming prefetcher (modeled after the L1 streamer) starts a stream on
// a demand miss and sustains it while demand accesses keep landing on
// prefetched lines; fills run off the demand path.
func (h *Hierarchy) AccessData(addr uint64, write bool) uint64 {
	return h.AccessDataAt(addr, write, 0)
}

// AccessDataAt is AccessData with the requesting cycle, for DRAM
// channel-occupancy modeling.
func (h *Hierarchy) AccessDataAt(addr uint64, write bool, now uint64) uint64 {
	lat := h.access(h.L1D, addr, write, now)
	if h.NoPrefetch {
		return lat
	}
	ls := h.L1D.LineSize
	if lat > h.L1D.Latency {
		h.pfFill(h.L1D, addr+ls, now)
		h.pfFill(h.L1D, addr+2*ls, now)
	} else if h.L1D.HitPrefetched() {
		h.pfFill(h.L1D, addr+2*ls, now)
		h.pfFill(h.L1D, addr+3*ls, now)
	}
	return lat
}

// pfFill brings a line into the cache on behalf of the prefetcher.
func (h *Hierarchy) pfFill(c *LineCache, addr uint64, now uint64) {
	if c.Contains(addr) {
		return
	}
	h.Prefetches++
	h.access(c, addr, false, now)
	c.MarkPrefetched(addr)
}

// AccessInstAt performs an instruction fetch access at the requesting
// cycle.
func (h *Hierarchy) AccessInstAt(addr uint64, now uint64) uint64 {
	lat := h.access(h.L1I, addr, false, now)
	if h.NoPrefetch {
		return lat
	}
	ls := h.L1I.LineSize
	if lat > h.L1I.Latency {
		h.pfFill(h.L1I, addr+ls, now)
		h.pfFill(h.L1I, addr+2*ls, now)
	} else if h.L1I.HitPrefetched() {
		h.pfFill(h.L1I, addr+2*ls, now)
	}
	return lat
}

// AccessShadowAt performs a privileged capability-table access at the
// requesting cycle. Alias-table accesses are served by the dedicated
// walker cache when configured (like a page-walk cache);
// capability-table accesses take the regular L2→LLC path. Either way the
// DRAM traffic rides the sideband: shadow volume is a few percent of
// demand and its requests come from dedicated engines, so it does not
// occupy a demand lane.
func (h *Hierarchy) AccessShadowAt(addr uint64, write bool, isAlias bool, now uint64) uint64 {
	lat := uint64(2) // shadow access port
	if h.Shadow != nil && isAlias {
		hit, _, _ := h.Shadow.Access(addr, write)
		lat += h.Shadow.Latency
		if hit {
			return lat
		}
		lat += h.LLC.Latency
		llcHit, _, llcWb := h.LLC.Access(addr, write)
		if llcWb {
			h.Ram.AccessSideband(h.LLC.LineSize, true)
		}
		if !llcHit {
			lat += h.Ram.AccessSideband(h.LLC.LineSize, false)
		}
		return lat
	}
	hit, wbAddr, wb := h.L2.Access(addr, write)
	if wb {
		h.wbBelow(h.L2, wbAddr, now)
	}
	lat += h.L2.Latency
	if hit {
		return lat
	}
	lat += h.LLC.Latency
	llcHit, _, llcWb := h.LLC.Access(addr, write)
	if llcWb {
		h.Ram.AccessSideband(h.LLC.LineSize, true)
	}
	if !llcHit {
		lat += h.Ram.AccessSideband(h.LLC.LineSize, false)
	}
	return lat
}

func (h *Hierarchy) access(l1 *LineCache, addr uint64, write bool, now uint64) uint64 {
	lat := l1.Latency
	hit, wbAddr, wb := l1.Access(addr, write)
	if wb {
		h.wbBelow(l1, wbAddr, now)
	}
	if hit {
		return lat
	}
	lat += h.L2.Latency
	hit, wbAddr, wb = h.L2.Access(addr, false)
	if wb {
		h.wbBelow(h.L2, wbAddr, now)
	}
	if hit {
		return lat
	}
	return lat + h.llcAndBelow(addr, false, now)
}

func (h *Hierarchy) llcAndBelow(addr uint64, write bool, now uint64) uint64 {
	lat := h.LLC.Latency
	hit, _, wb := h.LLC.Access(addr, write)
	if wb {
		h.Ram.AccessLane(h.LLC.LineSize, true, now, h.Lane)
	}
	if hit {
		return lat
	}
	return lat + h.Ram.AccessLane(h.LLC.LineSize, false, now, h.Lane)
}

// wbBelow propagates a dirty writeback into the next level down.
func (h *Hierarchy) wbBelow(from *LineCache, addr uint64, now uint64) {
	switch from {
	case h.L1I, h.L1D:
		_, wbAddr, wb := h.L2.Access(addr, true)
		if wb {
			h.wbBelow(h.L2, wbAddr, now)
		}
	case h.L2:
		_, _, wb := h.LLC.Access(addr, true)
		if wb {
			h.Ram.AccessLane(h.LLC.LineSize, true, now, h.Lane)
		}
	default:
		h.Ram.AccessLane(h.LLC.LineSize, true, now, h.Lane)
	}
}

// KeyCache is a set-associative cache over opaque 64-bit keys, used to model
// the in-processor capability cache (keyed by PID) and the alias cache
// (keyed by spilled-pointer address). It models hit/miss timing and
// invalidation only; the authoritative data lives in the shadow tables.
// keyEntry is one KeyCache way: key, recency, and validity packed
// together so a set probe touches one contiguous run instead of three
// parallel arrays.
type keyEntry struct {
	key   uint64
	lru   uint64
	valid bool
}

type KeyCache struct {
	Name string

	sets    int
	ways    int
	ents    []keyEntry // flat set-major: set s is ents[s*ways : (s+1)*ways]
	setMask int        // sets-1 when sets is a power of two, else -1
	clock   uint64
	victim  *victimCache
	Stats   Stats
}

// NewKeyCache constructs a key cache with entries/ways geometry and an
// optional fully-associative victim cache of victimEntries (0 disables it).
func NewKeyCache(name string, entries, ways, victimEntries int) *KeyCache {
	if entries%ways != 0 {
		panic(fmt.Sprintf("cache %s: %d entries not divisible by %d ways", name, entries, ways))
	}
	sets := entries / ways
	c := &KeyCache{Name: name, sets: sets, ways: ways}
	c.ents = make([]keyEntry, sets*ways)
	c.setMask = -1
	if sets > 0 && sets&(sets-1) == 0 {
		c.setMask = sets - 1
	}
	if victimEntries > 0 {
		c.victim = newVictimCache(victimEntries)
	}
	return c
}

func (c *KeyCache) set(key uint64) int {
	// Mix the key so sequentially allocated PIDs/addresses spread across sets.
	h := key * 0x9E3779B97F4A7C15
	if c.setMask >= 0 {
		return int(h) & c.setMask
	}
	return int(h % uint64(c.sets))
}

// Access looks up key, filling on miss (evicting into the victim cache when
// one is configured). It reports whether the lookup hit in either the main
// array or the victim cache.
func (c *KeyCache) Access(key uint64) bool {
	c.clock++
	set := c.set(key)
	ws := c.ents[set*c.ways : set*c.ways+c.ways]
	for w := range ws {
		if ws[w].valid && ws[w].key == key {
			ws[w].lru = c.clock
			c.Stats.Hits++
			return true
		}
	}
	if c.victim != nil && c.victim.remove(key) {
		// Victim hit: swap back into the main array.
		c.Stats.Hits++
		c.fill(set, key)
		return true
	}
	c.Stats.Misses++
	c.fill(set, key)
	return false
}

// Probe reports residency without updating state or stats.
func (c *KeyCache) Probe(key uint64) bool {
	set := c.set(key)
	ws := c.ents[set*c.ways : set*c.ways+c.ways]
	for w := range ws {
		if ws[w].valid && ws[w].key == key {
			return true
		}
	}
	return c.victim != nil && c.victim.contains(key)
}

func (c *KeyCache) fill(set int, key uint64) {
	ws := c.ents[set*c.ways : set*c.ways+c.ways]
	victim := -1
	for w := range ws {
		if !ws[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = 0
		for w := 1; w < len(ws); w++ {
			if ws[w].lru < ws[victim].lru {
				victim = w
			}
		}
		c.Stats.Evictions++
		if c.victim != nil {
			c.victim.insert(ws[victim].key)
		}
	}
	ws[victim] = keyEntry{key: key, valid: true, lru: c.clock}
}

// ValidCount returns the number of live entries in the main array (victim
// cache excluded).
func (c *KeyCache) ValidCount() int {
	n := 0
	for i := range c.ents {
		if c.ents[i].valid {
			n++
		}
	}
	return n
}

// DropNth drops the n-th live entry (set-major order, n taken modulo the
// live count) without touching statistics-relevant state beyond an
// invalidation — the fault-injection hook modeling a spontaneous line
// loss in the capability or alias cache. Because the authoritative data
// lives in the shadow tables, a drop is performance-only: the next access
// re-misses and refills. It returns the dropped key and whether any live
// entry existed.
func (c *KeyCache) DropNth(n int) (uint64, bool) {
	total := c.ValidCount()
	if total == 0 {
		return 0, false
	}
	n %= total
	for i := range c.ents {
		if !c.ents[i].valid {
			continue
		}
		if n == 0 {
			c.ents[i].valid = false
			c.Stats.Invals++
			return c.ents[i].key, true
		}
		n--
	}
	return 0, false
}

// Invalidate removes key from the cache and victim cache if present,
// modeling the cross-core invalidation requests sent on capability frees
// and alias updates (Sections IV-C, V-C).
func (c *KeyCache) Invalidate(key uint64) {
	set := c.set(key)
	ws := c.ents[set*c.ways : set*c.ways+c.ways]
	for w := range ws {
		if ws[w].valid && ws[w].key == key {
			ws[w].valid = false
			c.Stats.Invals++
		}
	}
	if c.victim != nil && c.victim.remove(key) {
		c.Stats.Invals++
	}
}

// Flush invalidates every entry (a context switch: the cache holds
// another process's metadata) while preserving accumulated statistics.
func (c *KeyCache) Flush() {
	for i := range c.ents {
		c.ents[i].valid = false
	}
	if c.victim != nil {
		for i := range c.victim.used {
			c.victim.used[i] = false
		}
	}
}

// victimCache is a small fully-associative FIFO victim buffer.
type victimCache struct {
	keys []uint64
	used []bool
	next int
}

func newVictimCache(entries int) *victimCache {
	return &victimCache{keys: make([]uint64, entries), used: make([]bool, entries)}
}

func (v *victimCache) insert(key uint64) {
	v.keys[v.next] = key
	v.used[v.next] = true
	v.next = (v.next + 1) % len(v.keys)
}

func (v *victimCache) contains(key uint64) bool {
	for i, k := range v.keys {
		if v.used[i] && k == key {
			return true
		}
	}
	return false
}

func (v *victimCache) remove(key uint64) bool {
	for i, k := range v.keys {
		if v.used[i] && k == key {
			v.used[i] = false
			return true
		}
	}
	return false
}
