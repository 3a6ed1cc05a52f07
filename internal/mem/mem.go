// Package mem implements the simulated guest memory system: a sparse paged
// address space, page tables carrying the CHEx86 alias-hosting bit, a TLB
// model, and a DRAM model with bandwidth accounting.
//
// The address space follows the conventional x86-64 canonical split. The
// upper (kernel) half hosts the privileged shadow structures — the shadow
// capability table and the hierarchical shadow alias table — which guest
// code can never address: the functional emulator refuses guest accesses to
// the shadow half, matching the paper's threat model (shadow tables are
// only accessible to dynamically generated micro-ops).
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the virtual memory page size.
const PageSize = 4096

// Canonical address-space layout for simulated processes.
const (
	TextBase   = 0x0000_0000_0040_0000 // program text
	GlobalBase = 0x0000_0000_0060_0000 // global data section (symbol table objects)
	HeapBase   = 0x0000_0000_1000_0000 // heap arena
	StackTop   = 0x0000_7FFF_FFFF_F000 // initial stack pointer (grows down)

	// UserTop is the first non-canonical user address; everything at or
	// above ShadowBase is the privileged shadow half.
	UserTop    = 0x0000_8000_0000_0000
	ShadowBase = 0xFFFF_8000_0000_0000 // shadow capability table arena
	AliasBase  = 0xFFFF_9000_0000_0000 // hierarchical shadow alias table arena
)

// IsShadow reports whether addr lies in the privileged shadow half.
func IsShadow(addr uint64) bool { return addr >= ShadowBase }

// IsUser reports whether addr is a canonical user-half address.
func IsUser(addr uint64) bool { return addr < UserTop }

// PageBase returns the base address of the page containing addr.
func PageBase(addr uint64) uint64 { return addr &^ (PageSize - 1) }

type page struct {
	data [PageSize]byte
}

// Memory is a sparse simulated physical memory indexed by virtual address
// (translation is identity; the page table exists for metadata such as the
// alias-hosting bit).
type Memory struct {
	pages map[uint64]*page

	// lastBase/lastPage cache the most recently resolved page: guest
	// access streams have strong page locality, and this lookup is on the
	// emulator's per-instruction path. Pages are never unmapped, so the
	// cached pointer cannot go stale.
	lastBase uint64
	lastPage *page

	// userPages and shadowPages count resident pages in each half, for the
	// Figure 9 storage-overhead accounting.
	userPages   uint64
	shadowPages uint64
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

func (m *Memory) pageFor(addr uint64, create bool) *page {
	base := PageBase(addr)
	if p := m.lastPage; p != nil && base == m.lastBase {
		return p
	}
	p := m.pages[base]
	if p == nil && create {
		p = &page{}
		m.pages[base] = p
		if IsShadow(addr) {
			m.shadowPages++
		} else {
			m.userPages++
		}
	}
	if p != nil {
		m.lastBase, m.lastPage = base, p
	}
	return p
}

// ReadU64 reads a little-endian 64-bit word. Unmapped memory reads as zero.
func (m *Memory) ReadU64(addr uint64) uint64 {
	if off := addr & (PageSize - 1); off <= PageSize-8 {
		p := m.pageFor(addr, false)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p.data[off:])
	}
	// Page-crossing access: assemble byte by byte.
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.ReadU8(addr+i)) << (8 * i)
	}
	return v
}

// WriteU64 writes a little-endian 64-bit word.
func (m *Memory) WriteU64(addr, v uint64) {
	if off := addr & (PageSize - 1); off <= PageSize-8 {
		p := m.pageFor(addr, true)
		binary.LittleEndian.PutUint64(p.data[off:], v)
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.WriteU8(addr+i, byte(v>>(8*i)))
	}
}

// ReadU8 reads one byte. Unmapped memory reads as zero.
func (m *Memory) ReadU8(addr uint64) byte {
	p := m.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return p.data[addr&(PageSize-1)]
}

// WriteU8 writes one byte, allocating the backing page on demand.
func (m *Memory) WriteU8(addr uint64, v byte) {
	p := m.pageFor(addr, true)
	p.data[addr&(PageSize-1)] = v
}

// TouchRange ensures every page overlapping [addr, addr+size) is resident.
func (m *Memory) TouchRange(addr, size uint64) {
	if size == 0 {
		return
	}
	for a := PageBase(addr); a < addr+size; a += PageSize {
		m.pageFor(a, true)
	}
}

// UserRSS returns the resident set size of the user half in bytes.
func (m *Memory) UserRSS() uint64 { return m.userPages * PageSize }

// ShadowRSS returns the resident set size of the shadow half in bytes.
func (m *Memory) ShadowRSS() uint64 { return m.shadowPages * PageSize }

// RSS returns the total resident set size in bytes.
func (m *Memory) RSS() uint64 { return (m.userPages + m.shadowPages) * PageSize }

// PTE is a page-table entry. Only metadata is modeled; translation is
// identity.
type PTE struct {
	Present bool

	// AliasHosting is the CHEx86 extension bit (Section V-C): set when the
	// page contains at least one spilled pointer alias, letting the
	// pipeline skip shadow-alias-table lookups for loads from pages that
	// host no aliases.
	AliasHosting bool
}

// PageTable maps page base addresses to PTEs.
type PageTable struct {
	entries map[uint64]PTE
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{entries: make(map[uint64]PTE)}
}

// Lookup returns the PTE for the page containing addr.
func (pt *PageTable) Lookup(addr uint64) PTE {
	return pt.entries[PageBase(addr)]
}

// SetAliasHosting sets or clears the alias-hosting bit on the page
// containing addr.
func (pt *PageTable) SetAliasHosting(addr uint64, hosting bool) {
	base := PageBase(addr)
	e := pt.entries[base]
	e.Present = true
	e.AliasHosting = hosting
	pt.entries[base] = e
}

// AliasHosting reports the alias-hosting bit of the page containing addr.
func (pt *PageTable) AliasHosting(addr uint64) bool {
	return pt.entries[PageBase(addr)].AliasHosting
}

// TLBStats aggregates TLB behavior.
type TLBStats struct {
	Hits   uint64
	Misses uint64
}

// TLB is a small set-associative translation lookaside buffer caching PTE
// metadata (including the alias-hosting bit). A miss costs a page-table
// walk, charged by the caller.
type TLB struct {
	sets    int
	ways    int
	pt      *PageTable
	entries []tlbEntry // set-major: set s holds entries[s*ways : (s+1)*ways]
	clock   uint64
	Stats   TLBStats
}

// tlbEntry is one way of a TLB set.
type tlbEntry struct {
	tag uint64 // page base; 0 = invalid (page 0 never cached)
	lru uint64
	pte PTE
}

// NewTLB returns a TLB with the given geometry backed by pt.
func NewTLB(entries, ways int, pt *PageTable) *TLB {
	if entries%ways != 0 {
		panic(fmt.Sprintf("mem: TLB entries %d not divisible by ways %d", entries, ways))
	}
	return &TLB{sets: entries / ways, ways: ways, pt: pt, entries: make([]tlbEntry, entries)}
}

// set returns the ways of the set the page at base maps to.
func (t *TLB) set(base uint64) []tlbEntry {
	s := int((base / PageSize) % uint64(t.sets))
	return t.entries[s*t.ways : (s+1)*t.ways]
}

// Lookup translates addr, returning its PTE and whether the TLB hit.
func (t *TLB) Lookup(addr uint64) (PTE, bool) {
	base := PageBase(addr)
	ws := t.set(base)
	t.clock++
	for w := range ws {
		if ws[w].tag == base && base != 0 {
			ws[w].lru = t.clock
			t.Stats.Hits++
			return ws[w].pte, true
		}
	}
	t.Stats.Misses++
	pte := t.pt.Lookup(base)
	// Fill, evicting the LRU way.
	victim := 0
	for w := 1; w < len(ws); w++ {
		if ws[w].lru < ws[victim].lru {
			victim = w
		}
	}
	ws[victim] = tlbEntry{tag: base, lru: t.clock, pte: pte}
	return pte, false
}

// Flush invalidates the whole TLB (a context switch), preserving stats.
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].tag = 0
	}
}

// Invalidate drops any cached entry for the page containing addr (used when
// the alias-hosting bit changes).
func (t *TLB) Invalidate(addr uint64) {
	base := PageBase(addr)
	ws := t.set(base)
	for w := range ws {
		if ws[w].tag == base {
			ws[w].tag = 0
		}
	}
}

// DRAM models main memory: a fixed access latency, a channel-occupancy
// bandwidth limit, and traffic accounting for the Figure 9 bandwidth
// comparison. The channel is shared between cores, so instrumentation
// traffic (shadow tables, ASan shadow, redzones) contends with demand
// traffic — the effect behind the paper's Figure 9 (bottom).
type DRAM struct {
	Latency uint64 // cycles per access

	// CyclesPerLine is the channel occupancy of one line transfer; 0
	// disables the bandwidth limit.
	CyclesPerLine uint64

	// Lanes is the number of requestors sharing the channel (cores). Each
	// lane is modeled with its own queue at 1/Lanes of the channel
	// bandwidth — a fair-share approximation that avoids coupling the
	// requestors' independent clocks.
	lanes []uint64

	busyUntil uint64

	BytesRead    uint64
	BytesWritten uint64
	Accesses     uint64
	QueueCycles  uint64 // total queueing delay due to channel contention
}

// SetLanes configures the number of requestors sharing the channel.
func (d *DRAM) SetLanes(n int) {
	if n < 1 {
		n = 1
	}
	d.lanes = make([]uint64, n)
}

// NewDRAM returns a DRAM model with the given access latency in cycles.
func NewDRAM(latency uint64) *DRAM { return &DRAM{Latency: latency} }

// Access charges one line transfer of the given size; write selects the
// direction. It returns the access latency (without queueing; use AccessAt
// when the current cycle is known).
func (d *DRAM) Access(bytes uint64, write bool) uint64 {
	return d.AccessAt(bytes, write, 0)
}

// AccessAt charges one line transfer starting no earlier than cycle now,
// modeling channel occupancy. It returns the total latency including any
// queueing delay.
func (d *DRAM) AccessAt(bytes uint64, write bool, now uint64) uint64 {
	return d.AccessLane(bytes, write, now, 0)
}

// AccessSideband charges a transfer's traffic without occupying a request
// lane (for low-volume metadata traffic whose bandwidth share is
// negligible and whose requests are issued by dedicated engines).
func (d *DRAM) AccessSideband(bytes uint64, write bool) uint64 {
	d.Accesses++
	if write {
		d.BytesWritten += bytes
	} else {
		d.BytesRead += bytes
	}
	return d.Latency
}

// AccessLane is AccessAt on the given requestor lane.
func (d *DRAM) AccessLane(bytes uint64, write bool, now uint64, lane int) uint64 {
	d.Accesses++
	if write {
		d.BytesWritten += bytes
	} else {
		d.BytesRead += bytes
	}
	lat := d.Latency
	if d.CyclesPerLine == 0 {
		return lat
	}
	occupancy := d.CyclesPerLine
	busy := &d.busyUntil
	if len(d.lanes) > 0 {
		busy = &d.lanes[lane%len(d.lanes)]
		occupancy *= uint64(len(d.lanes))
	}
	start := now
	if *busy > start {
		start = *busy
	}
	*busy = start + occupancy
	queue := start - now
	d.QueueCycles += queue
	return lat + queue
}

// TotalBytes returns total traffic in both directions.
func (d *DRAM) TotalBytes() uint64 { return d.BytesRead + d.BytesWritten }
