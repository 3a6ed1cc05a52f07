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

// refLineCache is the flat reference LineCache the growing one must match:
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

// sameSet requires set's ways to sit where the flat reference holds them:
// each filled way matches the reference way of the same index, and every
// reference way past the filled ones has never been filled.
func sameSet(t *testing.T, op int, c *LineCache, ref *refLineCache, addr uint64) {
	t.Helper()
	set, _ := c.index(addr)
	ws := c.sets[set]
	rws, _ := ref.set(addr)
	for w, r := range rws {
		if w >= len(ws) {
			if r != (refLine{}) {
				t.Fatalf("op %d: set %d holds %d ways, reference way %d is %+v", op, set, len(ws), w, r)
			}
			continue
		}
		l := ws[w]
		got := refLine{tag: l.tag & lineAddrMask, valid: l.tag&lineValid != 0,
			dirty: l.tag&lineDirty != 0, pf: l.tag&linePF != 0, lru: l.lru}
		if got != r {
			t.Fatalf("op %d: set %d way %d is %+v, reference %+v", op, set, w, got, r)
		}
	}
}

// TestLineCacheMatchesFlatReference drives the growing LineCache and the
// flat reference with the same seeded stream of Access, Contains,
// MarkPrefetched and Invalidate calls and requires every return value,
// the statistics, HitPrefetched and the touched set's ways to agree
// after every call. Addresses come from a few hot user regions and from
// the shadow capability and alias arenas, whose line addresses reach up
// to bit 60 at the smallest line size, next to the flag bits. The sparse
// stream puts one to three lines in each of 1,024 LLC sets, so sets grow
// a way at a time and refill Invalidate holes without ever filling up.
func TestLineCacheMatchesFlatReference(t *testing.T) {
	geoms := []struct {
		name      string
		sizeBytes int
		ways      int
		lineSize  uint64
		sparse    bool
	}{
		{"l1", 32 * 1024, 8, 64, false},
		{"l2", 256 * 1024, 8, 64, false},
		{"llc", 8 * 1024 * 1024, 16, 64, false},
		{"llc-sparse", 8 * 1024 * 1024, 16, 64, true},
		{"48-sets", 24 * 1024, 8, 64, false},
		{"8-byte-lines", 32 * 1024, 8, 8, false},
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
				if g.sparse {
					addr = 0x4000_0000 + uint64(rng.Intn(3))*stride + uint64(rng.Intn(1024))*g.lineSize
				} else if k := rng.Intn(len(regions) + 1); k < len(regions) {
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
				sameSet(t, i, c, ref, addr)
				if ref.hitPF {
					pfHits++
				}
			}
			s := ref.Stats
			if s.Hits == 0 || s.Invals == 0 || pfHits == 0 || (s.Writebacks == 0) != g.sparse {
				t.Fatalf("the stream left a path unexercised: %+v, %d prefetched hits", s, pfHits)
			}
		})
	}
}

// TestLineCacheStorageFollowsFills: an untouched cache holds no line
// storage and lookups create none; a set holds a block of at most twice
// the ways it has filled and never more than ways; an Invalidate hole is
// refilled before the set grows; and a chunk is allocated only when the
// current one cannot hold the block a set moves to.
func TestLineCacheStorageFollowsFills(t *testing.T) {
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

	// Fill set 0 way by way, then evict: the block doubles up to 16.
	const stride = 8 * 1024 * 1024 / 16 // one way's span: same set
	for k := 1; k <= 20; k++ {
		c.Access(uint64(k)*stride, false)
		ws := c.sets[0]
		if filled := min(k, 16); len(ws) != filled || cap(ws) > min(2*filled, 16) {
			t.Fatalf("after %d fills set 0 holds %d ways in a block of %d, want %d in at most %d",
				k, len(ws), cap(ws), filled, min(2*filled, 16))
		}
	}

	// An Invalidate hole is refilled before the set grows.
	const set = 1
	for k := 0; k < 3; k++ {
		c.Access(set*64+uint64(k)*stride, false)
	}
	c.Invalidate(set*64 + stride)
	c.Access(set*64+3*stride, false)
	if ws := c.sets[set]; len(ws) != 3 || ws[1].tag&lineAddrMask != (set*64+3*stride)/64 {
		t.Fatalf("the refill took way %d of %d, want the hole at way 1", len(ws)-1, len(ws))
	}
	c.Access(set*64+4*stride, false)
	if len(c.sets[set]) != 4 {
		t.Fatalf("with no hole the set must grow: %d ways", len(c.sets[set]))
	}

	// Two lines in every set move each set from a 1-line to a 2-line
	// block; the chunk is replaced only when it cannot hold the block.
	chunks := 0
	for i := uint64(0); i < 2*8192; i++ {
		addr := (i%8192)*64 + (i/8192+8)*stride
		s, _ := c.index(addr)
		before, oldCap := len(c.free), cap(c.sets[s])
		c.Access(addr, false)
		n := cap(c.sets[s])
		switch {
		case n == oldCap:
			if len(c.free) != before {
				t.Fatalf("access %d: set %d took storage without moving", i, s)
			}
		case before >= n:
			if len(c.free) != before-n {
				t.Fatalf("access %d: a %d-line block took %d lines", i, n, before-len(c.free))
			}
		default:
			chunks++
			if len(c.free) != c.chunk-n {
				t.Fatalf("access %d: a new chunk for a %d-line block left %d free", i, n, len(c.free))
			}
		}
	}
	if chunks == 0 {
		t.Fatal("the fills never ran a chunk out")
	}

	small := NewLineCache("l1", 32*1024, 8, 64, 4)
	small.Access(0, false)
	if cap(small.free) != 512-1 {
		t.Fatalf("a cache below one chunk must take chunks of its own size; %d lines left", cap(small.free))
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
