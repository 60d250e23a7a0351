package memsys

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestStoreSnapshotIsolation pins the copy-on-write contract: an Image
// captured by Snapshot never changes, no matter what the source store,
// a store built from the image, or a sibling clone writes afterwards.
func TestStoreSnapshotIsolation(t *testing.T) {
	s := NewStore()
	s.Write(5, 100)
	s.Write(PageWords+3, 200) // second page
	img := s.Snapshot()

	clone := NewStoreFrom(img)
	if got := clone.Read(5); got != 100 {
		t.Fatalf("clone.Read(5) = %d, want 100", got)
	}
	if got := clone.Read(PageWords + 3); got != 200 {
		t.Fatalf("clone.Read(page2) = %d, want 200", got)
	}
	if got := clone.Read(7); got != Fill(7) {
		t.Fatalf("clone.Read(7) = %d, want Fill", got)
	}

	// Mutate-after-clone: writes on either side must not leak across.
	s.Write(5, 111)
	clone.Write(5, 222)
	clone2 := NewStoreFrom(img)
	if got := s.Read(5); got != 111 {
		t.Fatalf("source saw %d after its own write, want 111", got)
	}
	if got := clone.Read(5); got != 222 {
		t.Fatalf("clone saw %d after its own write, want 222", got)
	}
	if got := clone2.Read(5); got != 100 {
		t.Fatalf("fresh clone saw %d, image mutated (want 100)", got)
	}
	// Unwritten words of a shared page stay shared and correct.
	if got := clone.Read(PageWords + 3); got != 200 {
		t.Fatalf("clone lost untouched word: %d, want 200", got)
	}
}

// TestStoreRestore pins the O(1) rewind: Restore drops everything
// written since the image (including whole new pages), and Restore(nil)
// rewinds to the cold Fill pattern.
func TestStoreRestore(t *testing.T) {
	s := NewStore()
	s.Write(9, 1)
	img := s.Snapshot()
	s.Write(9, 2)
	s.Write(3*PageWords, 3)
	s.Restore(img)
	if got := s.Read(9); got != 1 {
		t.Fatalf("after Restore, Read(9) = %d, want 1", got)
	}
	if got := s.Read(3 * PageWords); got != Fill(3*PageWords) {
		t.Fatalf("after Restore, new page survived: %d, want Fill", got)
	}
	s.Restore(nil)
	if got := s.Read(9); got != Fill(9) {
		t.Fatalf("after cold Restore, Read(9) = %d, want Fill", got)
	}
}

// TestStoreSnapshotAfterSnapshot pins that repeated snapshots chain:
// each freeze layers over the last, and an old image stays valid.
func TestStoreSnapshotAfterSnapshot(t *testing.T) {
	s := NewStore()
	s.Write(0, 10)
	img1 := s.Snapshot()
	s.Write(0, 20)
	s.Write(1, 21)
	img2 := s.Snapshot()
	s.Write(0, 30)

	for _, tc := range []struct {
		img  *Image
		a, v uint32
	}{
		{img1, 0, 10}, {img1, 1, Fill(1)},
		{img2, 0, 20}, {img2, 1, 21},
	} {
		if got := NewStoreFrom(tc.img).Read(tc.a); got != tc.v {
			t.Fatalf("image read at %d = %d, want %d", tc.a, got, tc.v)
		}
	}
	if got := s.Read(0); got != 30 {
		t.Fatalf("store lost its own write: %d, want 30", got)
	}
}

// TestStoreConcurrentAccess drives the parallel-channel access pattern
// under the race detector: goroutines reading and writing disjoint
// addresses (as channel-interleaved bank controllers do), racing on
// page materialization but never on elements.
func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStoreFrom(func() *Image {
		seed := NewStore()
		seed.Write(0, 42)
		return seed.Snapshot()
	}())
	const workers = 8
	const span = 4 * PageWords
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w uint32) {
			defer wg.Done()
			for a := w; a < span; a += workers {
				s.Write(a, a^w)
				if got := s.Read(a); got != a^w {
					t.Errorf("worker %d read back %d at %d, want %d", w, got, a, a^w)
					return
				}
				// Read untouched and frozen addresses too: lookups must be
				// safe against concurrent page inserts. (Elements being
				// written by another goroutine are out of contract: the
				// simulator's channel interleaving keeps them disjoint.)
				if got := s.Read(span + a); got != Fill(span+a) {
					t.Errorf("cold read at %d = %d, want Fill", span+a, got)
					return
				}
			}
		}(uint32(w))
	}
	wg.Wait()
	for a := uint32(0); a < span; a++ {
		if got, want := s.Read(a), a^(a%workers); got != want {
			t.Fatalf("final image at %d = %d, want %d", a, got, want)
		}
	}
}

// TestStoreAddressCorners covers the radix table's edges: the first and
// last word of the address space, and pages on either side of an inner
// and a root boundary, each written, read back, snapshotted and rewound.
func TestStoreAddressCorners(t *testing.T) {
	addrs := []uint32{0, PageWords - 1, 1<<innerShift - 1, 1 << innerShift,
		1<<rootShift - 1, 1 << rootShift, 1<<32 - 1}
	s := NewStore()
	for i, a := range addrs {
		s.Write(a, uint32(i)+1)
	}
	for i, a := range addrs {
		if got := s.Read(a); got != uint32(i)+1 {
			t.Fatalf("Read(%#x) = %d, want %d", a, got, i+1)
		}
	}
	img := s.Snapshot()
	s.Write(1<<32-1, 99)
	s.Restore(img)
	for i, a := range addrs {
		if got := s.Read(a); got != uint32(i)+1 {
			t.Fatalf("after Restore, Read(%#x) = %d, want %d", a, got, i+1)
		}
	}
	if got := img.PageNumbers(); len(got) != 6 || got[5] != (1<<32-1)/PageWords {
		t.Fatalf("image pages %v, want six ending at the last page", got)
	}
	s.Restore(nil)
	for _, a := range addrs {
		if got := s.Read(a); got != Fill(a) {
			t.Fatalf("after cold Restore, Read(%#x) = %#x, want Fill", a, got)
		}
	}
}

// TestStoreRewindAllocatesNothing pins page recycling: once a first run
// has grown the radix nodes and the free list, writing pages and
// rewinding allocates nothing, from a cold or a frozen base.
func TestStoreRewindAllocatesNothing(t *testing.T) {
	seed := NewStore()
	seed.Write(3*PageWords, 7)
	for _, img := range []*Image{nil, seed.Snapshot()} {
		s := NewStoreFrom(img)
		cycle := func() {
			for pg := uint32(0); pg < 8; pg++ {
				s.Write(pg*PageWords+pg, pg)
			}
			s.Restore(img)
		}
		cycle()
		if n := testing.AllocsPerRun(20, cycle); n != 0 {
			t.Fatalf("base %v: write-and-rewind allocated %.1f times per run, want 0", img != nil, n)
		}
		if got := s.Read(3 * PageWords); (img == nil && got != Fill(3*PageWords)) || (img != nil && got != 7) {
			t.Fatalf("base %v: rewound word reads %#x", img != nil, got)
		}
	}
}

// TestStoreConcurrentNodeInsertion races page insertion under distinct
// root and inner slots against readers that never write (so never take
// the store's lock): the race detector checks that every node and page
// is filled before the atomic store that lets a reader reach it.
func TestStoreConcurrentNodeInsertion(t *testing.T) {
	s := NewStore()
	const writers, pages = 4, 64
	addr := func(w, i uint32) uint32 { return w<<rootShift | i<<innerShift }
	var done atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !done.Load() {
				for w := uint32(0); w < writers; w++ {
					for i := uint32(0); i < pages; i++ {
						// Word 1 of every page stays unwritten.
						if b := addr(w, i) + 1; s.Read(b) != Fill(b) {
							t.Errorf("read %#x at %#x, want Fill", s.Read(b), b)
							return
						}
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := uint32(0); w < writers; w++ {
		wg.Add(1)
		go func(w uint32) {
			defer wg.Done()
			for i := uint32(0); i < pages; i++ {
				s.Write(addr(w, i), w+i)
			}
		}(w)
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
	for w := uint32(0); w < writers; w++ {
		for i := uint32(0); i < pages; i++ {
			if got := s.Read(addr(w, i)); got != w+i {
				t.Fatalf("word at %#x = %d, want %d", addr(w, i), got, w+i)
			}
		}
	}
}

// BenchmarkStore measures the copy-on-write store's operations: reads of
// a live, a never-written and a frozen page, a write into a live page,
// and a sweep cell's rewind — one word written into each of eight pages,
// then Restore to the base image.
func BenchmarkStore(b *testing.B) {
	seed := NewStore()
	seed.Write(0, 1)
	frozen := seed.Snapshot()
	live, cold, onFrozen := NewStore(), NewStore(), NewStoreFrom(frozen)
	live.Write(0, 1)
	var sink uint32
	for _, c := range []struct {
		name string
		op   func(i uint32)
	}{
		{"read/live", func(i uint32) { sink += live.Read(i % PageWords) }},
		{"read/cold", func(i uint32) { sink += cold.Read(i % PageWords) }},
		{"read/frozen", func(i uint32) { sink += onFrozen.Read(i % PageWords) }},
		{"write/live", func(i uint32) { live.Write(i%PageWords, i) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.op(uint32(i))
			}
		})
	}
	b.Run("restore/8-pages", func(b *testing.B) {
		s := NewStoreFrom(frozen)
		cycle := func(v uint32) {
			for pg := uint32(0); pg < 8; pg++ {
				s.Write(pg*PageWords, v)
			}
			s.Restore(frozen)
		}
		cycle(0) // grow the nodes and the free list
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(uint32(i))
		}
	})
	_ = sink
}
