package pipeline

import (
	"fmt"
	"math/rand"
	"testing"
)

// flatBandwidth is the reference the paged bandwidth window must match:
// the earlier window, one inline array of bwWindow counters, kept as it
// was (its pre-loop slide included).
type flatBandwidth struct {
	width  uint8
	base   uint64 // first cycle represented by counts[0]
	counts [bwWindow]uint8
}

func (b *flatBandwidth) reserve(want uint64) uint64 {
	if want < b.base {
		want = b.base
	}
	// Slide the window forward if want runs past it.
	if want >= b.base+bwWindow {
		shift := want - b.base - bwWindow/2
		b.slide(shift)
	}
	for {
		idx := (want - b.base) % bwWindow
		if want >= b.base+bwWindow {
			b.slide(want - b.base - bwWindow/2)
			idx = (want - b.base) % bwWindow
		}
		if b.counts[idx] < b.width {
			b.counts[idx]++
			return want
		}
		want++
	}
}

func (b *flatBandwidth) slide(shift uint64) {
	if shift >= bwWindow {
		clear(b.counts[:])
		b.base += shift
		return
	}
	start := b.base % bwWindow
	end := start + shift
	if end <= bwWindow {
		clear(b.counts[start:end])
	} else {
		clear(b.counts[start:])
		clear(b.counts[:end-bwWindow])
	}
	b.base += shift
}

// sameCounters reports the first physical index at which the paged
// window's counters (0 on an absent page) differ from the reference's.
func sameCounters(b *bandwidth, ref *flatBandwidth) error {
	if b.base != ref.base {
		return fmt.Errorf("base %d, reference %d", b.base, ref.base)
	}
	for i := range ref.counts {
		var got uint8
		if p := b.pages[i/bwPage]; p != nil {
			got = p[i%bwPage]
		}
		if got != ref.counts[i] {
			return fmt.Errorf("counter %d = %d, reference %d", i, got, ref.counts[i])
		}
	}
	return nil
}

// TestBandwidthMatchesFlatReference drives the paged window and the flat
// reference with the same seeded reserve streams and requires every
// returned cycle, and every counter, to agree. The streams mix monotone
// wants with jitter, wants below the window base, jumps past base+W (a
// partial slide) and past base+2W (a slide of a whole window or more),
// and run far past cycle 65,536, where the index the window reads and
// the span slide clears part ways (the ROADMAP timing-oracle item): the
// paged window must keep that behaviour exactly until it is fixed.
func TestBandwidthMatchesFlatReference(t *testing.T) {
	for _, width := range []uint8{1, 2, 6, 255} {
		t.Run(fmt.Sprintf("width-%d", width), func(t *testing.T) {
			b := &bandwidth{width: width}
			ref := &flatBandwidth{width: width}
			rng := rand.New(rand.NewSource(int64(width)))
			var cur uint64 // the stream's frontier
			var slides, wholeSlides, below int
			for i := 0; i < 400000; i++ {
				want := cur + uint64(rng.Intn(64))
				switch k := rng.Intn(1000); {
				case k < 20 && ref.base > 1000:
					want = ref.base - 1 - uint64(rng.Intn(1000))
					below++
				case k < 23:
					want = ref.base + bwWindow + uint64(rng.Intn(bwWindow/2))
					slides++
				case k < 25:
					want = ref.base + 2*bwWindow + uint64(rng.Intn(4*bwWindow))
					wholeSlides++
				}
				if got, exp := b.reserve(want), ref.reserve(want); got != exp {
					t.Fatalf("op %d: reserve(%d) = %d, reference %d", i, want, got, exp)
				}
				cur = max(cur, want) + uint64(rng.Intn(3))
				if i%4096 == 0 {
					if err := sameCounters(b, ref); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			}
			if err := sameCounters(b, ref); err != nil {
				t.Fatal(err)
			}
			if ref.base < 16*bwWindow || slides == 0 || wholeSlides == 0 || below == 0 {
				t.Fatalf("the stream left a path unexercised: base %d, %d slides, %d whole-window slides, %d wants below base",
					ref.base, slides, wholeSlides, below)
			}
		})
	}

	// A stream confined to the first page's cycles allocates that page
	// alone, and a slide allocates nothing: after a jump of more than a
	// whole window the next reserve lands at index W/2 and takes that
	// page only.
	t.Run("pages-on-first-write", func(t *testing.T) {
		b := &bandwidth{width: 2}
		ref := &flatBandwidth{width: 2}
		reserve := func(want uint64) uint64 {
			got, exp := b.reserve(want), ref.reserve(want)
			if got != exp {
				t.Fatalf("reserve(%d) = %d, reference %d", want, got, exp)
			}
			return got
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 5000; i++ {
			if got := reserve(uint64(rng.Intn(12000))); got >= bwPage {
				t.Fatalf("reserve returned cycle %d, past the first page", got)
			}
		}
		if got, want := allocated(b), [4]bool{true, false, false, false}; got != want {
			t.Fatalf("pages allocated %v, want %v", got, want)
		}
		reserve(b.base + 3*bwWindow)
		if got, want := allocated(b), [4]bool{true, false, true, false}; got != want {
			t.Fatalf("pages allocated %v after a whole-window slide, want %v", got, want)
		}
		if err := sameCounters(b, ref); err != nil {
			t.Fatal(err)
		}
	})
}

// allocated reports which of b's pages exist.
func allocated(b *bandwidth) (out [bwWindow / bwPage]bool) {
	for i, p := range b.pages {
		out[i] = p != nil
	}
	return out
}
