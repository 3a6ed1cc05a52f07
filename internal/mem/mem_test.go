package mem

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestReadWriteRoundTrip is a property test: any 64-bit value written at
// any (possibly page-straddling) user address reads back identically.
func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	f := func(addr uint64, v uint64) bool {
		addr %= UserTop - 8
		m.WriteU64(addr, v)
		return m.ReadU64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageStraddlingWrite(t *testing.T) {
	m := New()
	addr := uint64(2*PageSize - 3) // straddles a page boundary
	m.WriteU64(addr, 0x0123456789abcdef)
	if got := m.ReadU64(addr); got != 0x0123456789abcdef {
		t.Fatalf("straddling read back %#x", got)
	}
}

func TestUnmappedReadsZero(t *testing.T) {
	m := New()
	if m.ReadU64(0x12345678) != 0 {
		t.Error("unmapped memory must read as zero")
	}
	if m.RSS() != 0 {
		t.Error("reads must not materialize pages")
	}
}

func TestRSSAccounting(t *testing.T) {
	m := New()
	m.WriteU8(HeapBase, 1)
	m.WriteU8(HeapBase+1, 2) // same page
	if m.UserRSS() != PageSize {
		t.Fatalf("one page expected, RSS %d", m.UserRSS())
	}
	m.WriteU8(ShadowBase, 1)
	if m.ShadowRSS() != PageSize || m.UserRSS() != PageSize {
		t.Fatal("shadow/user RSS split wrong")
	}
	m.TouchRange(HeapBase+PageSize, 3*PageSize)
	if m.UserRSS() != 4*PageSize {
		t.Fatalf("TouchRange should have added 3 pages, RSS %d", m.UserRSS())
	}
	if m.RSS() != m.UserRSS()+m.ShadowRSS() {
		t.Error("total RSS must be the sum of both halves")
	}
}

func TestAddressSpacePredicates(t *testing.T) {
	if !IsUser(HeapBase) || !IsUser(StackTop) || IsUser(ShadowBase) {
		t.Error("user-half classification wrong")
	}
	if !IsShadow(ShadowBase) || !IsShadow(AliasBase) || IsShadow(HeapBase) {
		t.Error("shadow-half classification wrong")
	}
	if PageBase(PageSize+123) != PageSize {
		t.Error("PageBase wrong")
	}
}

func TestPageTableAliasBit(t *testing.T) {
	pt := NewPageTable()
	if pt.AliasHosting(HeapBase) {
		t.Error("fresh page must not host aliases")
	}
	pt.SetAliasHosting(HeapBase+100, true)
	if !pt.AliasHosting(HeapBase) || !pt.AliasHosting(HeapBase+PageSize-1) {
		t.Error("alias-hosting bit is per page")
	}
	if pt.AliasHosting(HeapBase + PageSize) {
		t.Error("bit must not leak to the next page")
	}
	pt.SetAliasHosting(HeapBase, false)
	if pt.AliasHosting(HeapBase) {
		t.Error("clearing the bit failed")
	}
}

func TestTLBBehavior(t *testing.T) {
	pt := NewPageTable()
	pt.SetAliasHosting(HeapBase, true)
	tlb := NewTLB(16, 4, pt)

	pte, hit := tlb.Lookup(HeapBase)
	if hit {
		t.Error("first lookup must miss")
	}
	if !pte.AliasHosting {
		t.Error("PTE metadata lost on fill")
	}
	if _, hit = tlb.Lookup(HeapBase + 8); !hit {
		t.Error("same-page lookup must hit")
	}

	// The cached copy goes stale when the page table changes...
	pt.SetAliasHosting(HeapBase, false)
	pte, _ = tlb.Lookup(HeapBase)
	if !pte.AliasHosting {
		t.Error("TLB should still serve the stale entry before invalidation")
	}
	// ...until invalidated.
	tlb.Invalidate(HeapBase)
	pte, hit = tlb.Lookup(HeapBase)
	if hit || pte.AliasHosting {
		t.Error("invalidation must force a fresh walk")
	}
}

func TestTLBEviction(t *testing.T) {
	pt := NewPageTable()
	tlb := NewTLB(4, 4, pt) // single set
	for i := uint64(0); i < 5; i++ {
		tlb.Lookup(HeapBase + i*PageSize)
	}
	// The LRU entry (page 0) was evicted by the fifth fill.
	if _, hit := tlb.Lookup(HeapBase); hit {
		t.Error("LRU entry should have been evicted")
	}
	if tlb.Stats.Misses != 6 {
		t.Errorf("expected 6 misses, got %d", tlb.Stats.Misses)
	}
}

// nestedTLB is the reference the flat TLB must match: the earlier TLB,
// with per-set tag, LRU and PTE slices, kept as it was.
type nestedTLB struct {
	sets  int
	ways  int
	pt    *PageTable
	tags  [][]uint64 // page base per way; 0 = invalid (page 0 never cached)
	lru   [][]uint64
	ptes  [][]PTE
	clock uint64
	Stats TLBStats
}

func newNestedTLB(entries, ways int, pt *PageTable) *nestedTLB {
	sets := entries / ways
	t := &nestedTLB{sets: sets, ways: ways, pt: pt}
	t.tags = make([][]uint64, sets)
	t.lru = make([][]uint64, sets)
	t.ptes = make([][]PTE, sets)
	for i := 0; i < sets; i++ {
		t.tags[i] = make([]uint64, ways)
		t.lru[i] = make([]uint64, ways)
		t.ptes[i] = make([]PTE, ways)
	}
	return t
}

func (t *nestedTLB) Lookup(addr uint64) (PTE, bool) {
	base := PageBase(addr)
	set := int((base / PageSize) % uint64(t.sets))
	t.clock++
	for w := 0; w < t.ways; w++ {
		if t.tags[set][w] == base && base != 0 {
			t.lru[set][w] = t.clock
			t.Stats.Hits++
			return t.ptes[set][w], true
		}
	}
	t.Stats.Misses++
	pte := t.pt.Lookup(base)
	victim := 0
	for w := 1; w < t.ways; w++ {
		if t.lru[set][w] < t.lru[set][victim] {
			victim = w
		}
	}
	t.tags[set][victim] = base
	t.ptes[set][victim] = pte
	t.lru[set][victim] = t.clock
	return pte, false
}

func (t *nestedTLB) Flush() {
	for s := range t.tags {
		for w := range t.tags[s] {
			t.tags[s][w] = 0
		}
	}
}

func (t *nestedTLB) Invalidate(addr uint64) {
	base := PageBase(addr)
	set := int((base / PageSize) % uint64(t.sets))
	for w := 0; w < t.ways; w++ {
		if t.tags[set][w] == base {
			t.tags[set][w] = 0
		}
	}
}

// TestTLBMatchesNestedReference drives the flat TLB and the nested
// reference, over one page table, with the same seeded stream of Lookup,
// Flush and Invalidate calls and alias-hosting changes, and requires every
// (PTE, hit) and the statistics to agree after every call, over the
// default 16-set geometry, a 4-set one and a single set. Page 0 is in
// the stream: it never hits, yet its fills take a way and stamp its LRU.
func TestTLBMatchesNestedReference(t *testing.T) {
	for _, g := range []struct{ entries, ways int }{{64, 4}, {16, 4}, {4, 4}} {
		t.Run(fmt.Sprintf("%dx%d", g.entries/g.ways, g.ways), func(t *testing.T) {
			pt := NewPageTable()
			tlb := NewTLB(g.entries, g.ways, pt)
			ref := newNestedTLB(g.entries, g.ways, pt)
			rng := rand.New(rand.NewSource(int64(g.entries)))
			pages := uint64(2*g.entries + 3) // more pages than entries: every set evicts
			var page0, stale int
			for i := 0; i < 50000; i++ {
				addr := uint64(rng.Int63n(int64(pages * PageSize)))
				if rng.Intn(2) == 0 {
					addr += HeapBase
				}
				if addr < PageSize {
					page0++
				}
				switch op := rng.Intn(100); {
				case op < 85:
					pte, hit := tlb.Lookup(addr)
					rpte, rhit := ref.Lookup(addr)
					if pte != rpte || hit != rhit {
						t.Fatalf("op %d: Lookup(%#x) = %+v %v, reference %+v %v", i, addr, pte, hit, rpte, rhit)
					}
					if hit && pte.AliasHosting != pt.AliasHosting(addr) {
						stale++
					}
				case op < 92:
					// Change the page's alias-hosting bit, invalidating
					// its entry only some of the time so stale hits occur.
					pt.SetAliasHosting(addr, rng.Intn(2) == 0)
					if rng.Intn(2) == 0 {
						tlb.Invalidate(addr)
						ref.Invalidate(addr)
					}
				case op < 99:
					tlb.Invalidate(addr)
					ref.Invalidate(addr)
				default:
					tlb.Flush()
					ref.Flush()
				}
				if tlb.Stats != ref.Stats {
					t.Fatalf("op %d: stats %+v, reference %+v", i, tlb.Stats, ref.Stats)
				}
			}
			if s := ref.Stats; s.Hits == 0 || s.Misses == 0 || page0 == 0 || stale == 0 {
				t.Fatalf("the stream left a path unexercised: %+v, %d page-0 calls, %d stale hits", s, page0, stale)
			}
		})
	}
}

func TestDRAMTrafficAndLanes(t *testing.T) {
	d := NewDRAM(100)
	if lat := d.Access(64, false); lat != 100 {
		t.Fatalf("latency %d, want 100 with no bandwidth limit", lat)
	}
	d.CyclesPerLine = 10
	d.SetLanes(2)

	// Two back-to-back accesses on the same lane: the second queues.
	lat1 := d.AccessLane(64, false, 1000, 0)
	lat2 := d.AccessLane(64, false, 1000, 0)
	if lat1 != 100 {
		t.Errorf("first access should see no queue, got %d", lat1)
	}
	if lat2 <= lat1 {
		t.Errorf("second same-cycle access must queue (got %d)", lat2)
	}
	// The other lane is independent.
	if lat := d.AccessLane(64, false, 1000, 1); lat != 100 {
		t.Errorf("other lane must not see lane 0's queue, got %d", lat)
	}
	if d.BytesRead != 4*64 {
		t.Errorf("traffic accounting wrong: %d", d.BytesRead)
	}
	d.AccessSideband(64, true)
	if d.BytesWritten != 64 {
		t.Error("sideband traffic must be counted")
	}
	if d.TotalBytes() != d.BytesRead+d.BytesWritten {
		t.Error("TotalBytes mismatch")
	}
}
