package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chex86/internal/mem"
)

func TestLineCacheHitMiss(t *testing.T) {
	c := NewLineCache("t", 1024, 2, 64, 4) // 16 lines, 8 sets, 2 ways
	if hit, _, _ := c.Access(0, false); hit {
		t.Fatal("cold cache cannot hit")
	}
	if hit, _, _ := c.Access(0, false); !hit {
		t.Fatal("second access must hit")
	}
	if hit, _, _ := c.Access(32, false); !hit {
		t.Fatal("same-line access must hit")
	}
	if c.Stats.Hits != 2 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestLineCacheLRUAndWriteback(t *testing.T) {
	c := NewLineCache("t", 2*64, 2, 64, 1) // one set, two ways
	c.Access(0, true)                      // dirty
	c.Access(1<<12, false)
	c.Access(0, false) // refresh line 0's LRU
	// Fill a third line: evicts the LRU (the clean one at 1<<12).
	if _, _, wb := c.Access(2<<12, false); wb {
		t.Fatal("clean eviction must not write back")
	}
	if !c.Contains(0) {
		t.Fatal("recently-used dirty line evicted prematurely")
	}
	// Now evict the dirty line.
	hit, wbAddr, wb := c.Access(3<<12, false)
	if hit {
		t.Fatal("unexpected hit")
	}
	if !wb || wbAddr != 0 {
		t.Fatalf("dirty eviction must report writeback of line 0 (got %v %#x)", wb, wbAddr)
	}
}

func TestLineCacheInvalidate(t *testing.T) {
	c := NewLineCache("t", 1024, 2, 64, 1)
	c.Access(128, true)
	c.Invalidate(128)
	if c.Contains(128) {
		t.Fatal("invalidated line still resident")
	}
}

func TestKeyCacheLRUVictim(t *testing.T) {
	c := NewKeyCache("t", 2, 2, 1) // one set of 2 + 1 victim entry
	c.Access(10)
	c.Access(20)
	c.Access(30) // evicts key 10 into the victim cache
	if !c.Probe(10) {
		t.Fatal("evicted key must be found in the victim cache")
	}
	if !c.Access(10) {
		t.Fatal("victim hit must count as a hit")
	}
	c.Invalidate(20)
	if c.Probe(20) {
		t.Fatal("invalidated key still present")
	}
}

func TestKeyCacheMissRate(t *testing.T) {
	c := NewKeyCache("t", 64, 2, 0)
	for i := 0; i < 1000; i++ {
		c.Access(uint64(i % 8)) // working set of 8 in a 64-entry cache
	}
	if r := c.Stats.MissRate(); r > 0.01 {
		t.Fatalf("tiny working set should hit ~always, miss rate %f", r)
	}
}

// TestLineCacheAlwaysFindsAfterFill is a property test: any address is
// resident immediately after being accessed.
func TestLineCacheAlwaysFindsAfterFill(t *testing.T) {
	c := NewLineCache("t", 32*1024, 8, 64, 4)
	f := func(addr uint64) bool {
		addr %= 1 << 40
		c.Access(addr, false)
		return c.Contains(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newHierarchy() *Hierarchy {
	return &Hierarchy{
		L1I: NewLineCache("l1i", 32*1024, 8, 64, 4),
		L1D: NewLineCache("l1d", 32*1024, 8, 64, 4),
		L2:  NewLineCache("l2", 256*1024, 8, 64, 12),
		LLC: NewLineCache("llc", 8*1024*1024, 16, 64, 40),
		Ram: mem.NewDRAM(200),
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := newHierarchy()
	cold := h.AccessData(0x10000, false)
	if cold != 4+12+40+200 {
		t.Fatalf("cold access should traverse all levels: got %d", cold)
	}
	warm := h.AccessData(0x10000, false)
	if warm != 4 {
		t.Fatalf("L1 hit should cost the L1 latency: got %d", warm)
	}
	if h.Ram.BytesRead == 0 {
		t.Fatal("cold miss must charge DRAM traffic")
	}
}

func TestHierarchyStreamPrefetch(t *testing.T) {
	h := newHierarchy()
	misses := 0
	for i := uint64(0); i < 64; i++ { // stream 64 lines
		if lat := h.AccessData(0x100000+i*64, false); lat > h.L1D.Latency {
			misses++
		}
	}
	// The streamer should cover the stream after the first few lines.
	if misses > 4 {
		t.Fatalf("streaming should be covered by the prefetcher; %d demand misses", misses)
	}
	if h.Prefetches == 0 {
		t.Fatal("prefetcher never fired")
	}

	h2 := newHierarchy()
	h2.NoPrefetch = true
	misses = 0
	for i := uint64(0); i < 64; i++ {
		if lat := h2.AccessData(0x100000+i*64, false); lat > h2.L1D.Latency {
			misses++
		}
	}
	if misses != 64 {
		t.Fatalf("without prefetch every line is a compulsory miss, got %d", misses)
	}
}

func TestHierarchyShadowPath(t *testing.T) {
	h := newHierarchy()
	h.Shadow = NewLineCache("shadow", 32*1024, 8, 64, 4)
	const aliasAddr = mem.AliasBase + 0x1000
	cold := h.AccessShadowAt(aliasAddr, false, true, 0)
	warm := h.AccessShadowAt(aliasAddr, false, true, 0)
	if warm >= cold {
		t.Fatalf("walker-cache hit (%d) must beat the cold fill (%d)", warm, cold)
	}
	if warm != 2+4 {
		t.Fatalf("shadow hit should cost port+cache latency, got %d", warm)
	}
	// Capability-table accesses bypass the walker cache and go to L2.
	capCold := h.AccessShadowAt(mem.ShadowBase+64, false, false, 0)
	if capCold < 2+12 {
		t.Fatalf("capability-table access must include the L2 path, got %d", capCold)
	}
	if h.Shadow.Stats.Accesses() != 2 {
		t.Fatalf("capability path must not touch the walker cache (%d accesses)", h.Shadow.Stats.Accesses())
	}
}

// TestKeyCacheResidencyProperty: any key is resident immediately after an
// access, and invalidation always removes it.
func TestKeyCacheResidencyProperty(t *testing.T) {
	c := NewKeyCache("t", 64, 2, 8)
	f := func(key uint64, invalidate bool) bool {
		c.Access(key)
		if !c.Probe(key) {
			return false
		}
		if invalidate {
			c.Invalidate(key)
			if c.Probe(key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyCacheFlushKeepsStats(t *testing.T) {
	c := NewKeyCache("t", 8, 2, 2)
	for i := uint64(0); i < 20; i++ {
		c.Access(i)
	}
	misses := c.Stats.Misses
	c.Flush()
	if c.Stats.Misses != misses {
		t.Fatal("flush must preserve statistics")
	}
	for i := uint64(0); i < 20; i++ {
		if c.Probe(i) {
			t.Fatalf("key %d survived the flush", i)
		}
	}
}

// refLineCache is the flat reference LineCache the chunked one must match:
// 24-byte lines, every set's ways allocated up front in one set-major
// array (set s occupies lines[s*ways : (s+1)*ways]).
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	pf    bool
	lru   uint64
}

type refLineCache struct {
	lineSize uint64
	sets     int
	ways     int
	lines    []refLine
	clock    uint64
	hitPF    bool
	Stats    Stats
}

func newRefLineCache(sizeBytes, ways int, lineSize uint64) *refLineCache {
	sets := sizeBytes / int(lineSize) / ways
	return &refLineCache{lineSize: lineSize, sets: sets, ways: ways, lines: make([]refLine, sets*ways)}
}

func (c *refLineCache) set(addr uint64) ([]refLine, uint64) {
	tag := addr / c.lineSize
	s := int(tag % uint64(c.sets))
	return c.lines[s*c.ways : s*c.ways+c.ways], tag
}

func (c *refLineCache) Access(addr uint64, write bool) (hit bool, wbAddr uint64, wb bool) {
	ws, tag := c.set(addr)
	c.clock++
	for w := range ws {
		if ws[w].valid && ws[w].tag == tag {
			ws[w].lru = c.clock
			c.hitPF = ws[w].pf
			ws[w].pf = false
			if write {
				ws[w].dirty = true
			}
			c.Stats.Hits++
			return true, 0, false
		}
	}
	c.hitPF = false
	c.Stats.Misses++
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
		if ws[victim].dirty {
			c.Stats.Writebacks++
			wb = true
			wbAddr = ws[victim].tag * c.lineSize
		}
	}
	ws[victim] = refLine{tag: tag, valid: true, dirty: write, lru: c.clock}
	return false, wbAddr, wb
}

func (c *refLineCache) MarkPrefetched(addr uint64) {
	ws, tag := c.set(addr)
	for w := range ws {
		if ws[w].valid && ws[w].tag == tag {
			ws[w].pf = true
		}
	}
}

func (c *refLineCache) Contains(addr uint64) bool {
	ws, tag := c.set(addr)
	for _, l := range ws {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

func (c *refLineCache) Invalidate(addr uint64) {
	ws, tag := c.set(addr)
	for w := range ws {
		if ws[w].valid && ws[w].tag == tag {
			ws[w].valid = false
			c.Stats.Invals++
		}
	}
}

// TestLineCacheMatchesFlatReference drives the chunked LineCache and the
// flat reference with the same seeded stream of Access, Contains,
// MarkPrefetched and Invalidate calls and requires every return value,
// the statistics and HitPrefetched to agree after every call. Addresses
// come from a few hot user regions and from the shadow capability and
// alias arenas, whose line addresses reach up to bit 60 at the smallest
// line size, next to the flag bits.
func TestLineCacheMatchesFlatReference(t *testing.T) {
	geoms := []struct {
		name      string
		sizeBytes int
		ways      int
		lineSize  uint64
	}{
		{"l1", 32 * 1024, 8, 64},
		{"l2", 256 * 1024, 8, 64},
		{"llc", 8 * 1024 * 1024, 16, 64},
		{"48-sets", 24 * 1024, 8, 64},
		{"8-byte-lines", 32 * 1024, 8, 8},
	}
	regions := []struct{ base, size uint64 }{
		{0x400000, 64 * 1024},                 // code and globals
		{0x10000000, 16 * 1024 * 1024},        // heap: twice the LLC
		{0x7fff_ff00_0000, 32 * 1024},         // stack
		{mem.ShadowBase, 1024 * 1024},         // capability table
		{mem.AliasBase, 1024 * 1024},          // alias table
		{^uint64(0) - 64*1024 + 1, 64 * 1024}, // top of the address space
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			c := NewLineCache(g.name, g.sizeBytes, g.ways, g.lineSize, 1)
			ref := newRefLineCache(g.sizeBytes, g.ways, g.lineSize)
			stride := uint64(g.sizeBytes / g.ways) // one way's span: same set
			rng := rand.New(rand.NewSource(1))
			pfHits := 0
			for i := 0; i < 100000; i++ {
				var addr uint64
				if k := rng.Intn(len(regions) + 1); k < len(regions) {
					off := rng.Uint64() % regions[k].size
					if rng.Intn(2) == 0 {
						off %= 16 * 1024 // each region's hot head
					}
					addr = regions[k].base + off
				} else {
					// Twice as many lines as ways into each of four sets,
					// so every geometry evicts.
					addr = 0x2000_0000 + uint64(rng.Intn(2*g.ways))*stride + uint64(rng.Intn(4))*g.lineSize
				}
				switch op := rng.Intn(10); {
				case op < 7:
					write := rng.Intn(3) == 0
					h, wa, wb := c.Access(addr, write)
					rh, rwa, rwb := ref.Access(addr, write)
					if h != rh || wa != rwa || wb != rwb {
						t.Fatalf("op %d: Access(%#x, %v) = %v %#x %v, reference %v %#x %v",
							i, addr, write, h, wa, wb, rh, rwa, rwb)
					}
				case op == 7:
					if got, want := c.Contains(addr), ref.Contains(addr); got != want {
						t.Fatalf("op %d: Contains(%#x) = %v, reference %v", i, addr, got, want)
					}
				case op == 8:
					c.MarkPrefetched(addr)
					ref.MarkPrefetched(addr)
				default:
					c.Invalidate(addr)
					ref.Invalidate(addr)
				}
				if c.Stats != ref.Stats || c.HitPrefetched() != ref.hitPF {
					t.Fatalf("op %d: stats %+v hitPF %v, reference %+v %v",
						i, c.Stats, c.HitPrefetched(), ref.Stats, ref.hitPF)
				}
				if ref.hitPF {
					pfHits++
				}
			}
			if s := ref.Stats; s.Hits == 0 || s.Writebacks == 0 || s.Invals == 0 || pfHits == 0 {
				t.Fatalf("the stream left a path unexercised: %+v, %d prefetched hits", s, pfHits)
			}
		})
	}
}

// TestLineCacheStorageGrowsByChunk: an untouched cache holds no line
// storage, lookups do not create any, and filled sets take their ways
// from one chunk until it runs out.
func TestLineCacheStorageGrowsByChunk(t *testing.T) {
	c := NewLineCache("llc", 8*1024*1024, 16, 64, 40)
	c.Contains(0)
	c.MarkPrefetched(0)
	c.Invalidate(0)
	if c.free != nil {
		t.Fatal("untouched cache allocated a storage chunk")
	}
	for s := range c.sets {
		if c.sets[s] != nil {
			t.Fatalf("untouched set %d holds ways", s)
		}
	}
	const setsPerChunk = chunkLines / 16
	chunks := 0
	for s := 0; s < 2*setsPerChunk+1; s++ {
		before := cap(c.free)
		c.Access(uint64(s)*64, false) // line s maps to set s
		if cap(c.free) > before {
			chunks++
		}
		if want := s/setsPerChunk + 1; chunks != want {
			t.Fatalf("after filling %d sets: %d chunks, want %d", s+1, chunks, want)
		}
		if want := (chunks*setsPerChunk - (s + 1)) * 16; len(c.free) != want {
			t.Fatalf("after filling %d sets: %d free lines, want %d", s+1, len(c.free), want)
		}
		if len(c.sets[s]) != 16 {
			t.Fatalf("set %d holds %d ways, want 16", s, len(c.sets[s]))
		}
	}
	// A second access to a filled set takes no new storage.
	free := len(c.free)
	c.Access(64, true)
	if len(c.free) != free {
		t.Fatal("a filled set took more storage")
	}

	small := NewLineCache("l1", 32*1024, 8, 64, 4)
	small.Access(0, false)
	if cap(small.free) != 512-8 {
		t.Fatalf("a cache below one chunk must take one chunk of its own size; %d lines left", cap(small.free))
	}
}

func TestLineCacheRejectsTinyLines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("4-byte lines must be rejected")
		}
	}()
	NewLineCache("t", 1024, 2, 4, 1)
}
