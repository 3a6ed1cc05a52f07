package pipeline

// This file implements the scheduling resources of the one-pass
// out-of-order timing model: per-cycle bandwidth counters (issue width,
// commit width, functional-unit pools) and in-order occupancy rings (ROB,
// IQ, LQ, SQ). The model processes the committed micro-op trace in a
// single pass, computing for every micro-op its fetch, dispatch, issue,
// completion, and commit cycles subject to these resource constraints —
// the standard trace-driven instruction-window timing approach.

// bwWindow is the sliding-window size for bandwidth counters. It must
// exceed the maximum spread between the oldest and newest in-flight cycle,
// which is bounded by ROB occupancy times worst-case memory latency.
const bwWindow = 1 << 16

// bwPage is the number of counters in one page of a bandwidth window.
// Pages are allocated on their first write, so a window costs nothing
// until the model reserves from it, and a pool a program never uses (the
// SIMD pool, the FP pool of an integer program) costs nothing at all.
const bwPage = 1 << 14

// bandwidth models a per-cycle issue/commit/FU bandwidth limit using a
// sliding window of per-cycle counters. Counters are a single byte each:
// the schedule loop reserves from several bandwidth instances per μop, so
// the combined window footprint must stay cache-resident (widths are
// pipeline widths and FU pool sizes, single digits in practice). The
// window is bwWindow/bwPage pages; an absent page reads 0.
type bandwidth struct {
	width uint8
	base  uint64 // first cycle represented by physical index 0
	pages [bwWindow / bwPage]*[bwPage]uint8
}

// reserve finds the first cycle at or after want with spare bandwidth,
// consumes one slot, and returns that cycle.
func (b *bandwidth) reserve(want uint64) uint64 {
	if want < b.base {
		want = b.base
	}
	for {
		// Slide the window forward if want runs past it.
		if want >= b.base+bwWindow {
			return b.slideReserve(want)
		}
		idx := (want - b.base) % bwWindow
		p := b.pages[idx/bwPage]
		if p == nil {
			return b.firstWrite(idx, want)
		}
		if c := &p[idx%bwPage]; *c < b.width {
			*c++
			return want
		}
		want++
	}
}

// slideReserve slides the window so that want falls inside it, then
// reserves from there. It and firstWrite are the only calls reserve's
// loop makes, and both end the loop, so the loop keeps want and the base
// in registers instead of saving them around a call on every cycle.
func (b *bandwidth) slideReserve(want uint64) uint64 {
	b.slide(want - b.base - bwWindow/2)
	return b.reserve(want)
}

// firstWrite allocates the page holding index idx and consumes the slot
// there for cycle want. An absent page reads 0 and every width is at
// least 1, so that slot is free.
func (b *bandwidth) firstWrite(idx, want uint64) uint64 {
	p := new([bwPage]uint8)
	p[idx%bwPage] = 1
	b.pages[idx/bwPage] = p
	return want
}

// slide advances the window base by shift cycles, discarding old counters.
// The discarded index range [base%W, (base+shift)%W) is cleared as one or
// two contiguous spans.
func (b *bandwidth) slide(shift uint64) {
	start := b.base % bwWindow
	b.base += shift
	if shift >= bwWindow {
		b.clearSpan(0, bwWindow)
		return
	}
	end := start + shift
	if end <= bwWindow {
		b.clearSpan(start, end)
	} else {
		b.clearSpan(start, bwWindow)
		b.clearSpan(0, end-bwWindow)
	}
}

// clearSpan zeroes the counters at physical indexes [lo, hi), one
// contiguous span per page so the runtime can use vectorized memclr;
// pages that do not exist are skipped.
func (b *bandwidth) clearSpan(lo, hi uint64) {
	for lo < hi {
		n := lo / bwPage
		end := min(hi, (n+1)*bwPage)
		if p := b.pages[n]; p != nil {
			clear(p[lo%bwPage : end-n*bwPage])
		}
		lo = end
	}
}

// occupancyRing models an in-order-allocated, capacity-limited structure
// (ROB, IQ, LQ, SQ): entry i cannot allocate until entry i-capacity has
// released. release cycles are recorded in allocation order. The ring
// position is kept as an incrementally wrapped head index rather than
// count%capacity: allocate/release run multiple times per μop and the
// capacities are not powers of two, so the division is a measurable cost.
type occupancyRing struct {
	capacity int
	releases []uint64 // circular: release cycle of the (i mod cap)-th entry
	count    uint64   // total allocations so far
	head     int      // count % capacity, maintained incrementally
}

func newOccupancyRing(capacity int) *occupancyRing {
	return &occupancyRing{capacity: capacity, releases: make([]uint64, capacity)}
}

// allocate returns the earliest cycle (at or after want) at which a new
// entry can be allocated; the caller must follow with release().
func (r *occupancyRing) allocate(want uint64) uint64 {
	if r.count >= uint64(r.capacity) {
		// The slot reused by this entry frees when its previous occupant
		// released.
		if prev := r.releases[r.head]; prev > want {
			want = prev
		}
	}
	return want
}

// release records the release cycle of the most recently allocated entry.
func (r *occupancyRing) release(cycle uint64) {
	r.releases[r.head] = cycle
	r.count++
	r.head++
	if r.head == r.capacity {
		r.head = 0
	}
}

// occupied counts entries still held at the given cycle (diagnostic use:
// pipeline snapshots on hang/cancellation errors).
func (r *occupancyRing) occupied(now uint64) int {
	n := r.count
	if n > uint64(r.capacity) {
		n = uint64(r.capacity)
	}
	held := 0
	for i := uint64(0); i < n; i++ {
		if r.releases[i] > now {
			held++
		}
	}
	return held
}

// issueWindow models a capacity-limited structure whose entries free
// out-of-order (the instruction queue: entries release at issue). A new
// entry can dispatch once fewer than capacity older entries remain
// unissued — i.e., no earlier than the capacity-th largest issue time seen
// so far. A size-capacity min-heap of the largest issue times yields that
// bound exactly. The heap is 4-ary with a hole-based sift: replacing the
// root usually sifts the full depth, and the 4-ary layout halves that
// depth while keeping each level's children inside one cache line.
type issueWindow struct {
	capacity int
	heap     []uint64 // 4-ary min-heap of the `capacity` largest issue times
}

func newIssueWindow(capacity int) *issueWindow {
	return &issueWindow{capacity: capacity}
}

// occupied counts entries still unissued at the given cycle (diagnostic
// use: pipeline snapshots on hang/cancellation errors).
func (w *issueWindow) occupied(now uint64) int {
	held := 0
	for _, t := range w.heap {
		if t > now {
			held++
		}
	}
	return held
}

// bound returns the earliest cycle at which a new entry may dispatch.
func (w *issueWindow) bound() uint64 {
	if len(w.heap) < w.capacity {
		return 0
	}
	return w.heap[0]
}

// add records an entry's issue time.
func (w *issueWindow) add(issue uint64) {
	h := w.heap
	if len(h) < w.capacity {
		h = append(h, issue)
		w.heap = h
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 4
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return
	}
	if issue <= h[0] {
		return
	}
	// Sift the hole left by the evicted root downward, pulling the
	// smaller child up, until issue fits.
	n := len(h)
	i := 0
	for {
		small := i
		min := issue
		c := 4*i + 1
		last := c + 4
		if last > n {
			last = n
		}
		for ; c < last; c++ {
			if h[c] < min {
				small, min = c, h[c]
			}
		}
		if small == i {
			break
		}
		h[i] = min
		i = small
	}
	h[i] = issue
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
