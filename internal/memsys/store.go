// Store: a lazily materialized word store shared by every memory model,
// with a two-layer copy-on-write design serving two masters at once:
//
//   - Checkpointing: Snapshot freezes the current contents into an
//     immutable Image that new stores (NewStoreFrom) and rewinds
//     (Restore) share by reference. Pages are copied only when a store
//     first writes into a frozen page, so cloning a multi-megabyte
//     image costs one map header and warm-starting a sweep cell is a
//     pointer swap.
//   - Concurrent readers: the live layer is a fixed-depth radix table
//     over the page number whose every slot — inner node or page — is
//     published through its own atomic pointer, and page insertion runs
//     under a mutex, so goroutines ticking different memory channels
//     may Read and Write concurrently. Distinct addresses land in
//     distinct page elements (channel interleaving guarantees
//     disjointness), so element stores need no synchronization; only
//     the table's slots do.
//
// The hot paths stay hot: a Read of a live page is three atomic loads,
// and a Write to it is the same plus one element store; neither touches
// a map. Only a word outside the live layer consults the frozen map, and
// only when the store has one. Page insertion — rare at 16 KiB
// granularity, and absent entirely in steady state — allocates radix
// nodes only on the path to a page the store writes.

package memsys

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pva/internal/core"
)

// PageWords is the allocation granularity of Store.
const PageWords = 1 << pageBits

// The live table splits a word address into a 6-bit root index, 7-bit
// inner and leaf indices, and the 12-bit word offset within its page:
// the 64-slot root (512 bytes) sits inline in every Store, and each
// inner or leaf node is 128 slots (1 KiB).
const (
	pageBits  = 12
	leafBits  = 7
	innerBits = 7
	rootBits  = 32 - pageBits - leafBits - innerBits

	leafShift  = pageBits
	innerShift = leafShift + leafBits
	rootShift  = innerShift + innerBits
)

// page is one live page of words.
type page = [PageWords]uint32

type (
	leafNode  [1 << leafBits]atomic.Pointer[page]
	innerNode [1 << innerBits]atomic.Pointer[leafNode]
)

// pageMap is the frozen layer's page table: page number to page.
type pageMap = map[uint32][]uint32

// Image is an immutable snapshot of a Store's contents. Images share
// pages with the stores they came from and the stores built on them;
// every store copy-on-writes before its first store into a frozen page,
// so an Image's words never change after Snapshot returns.
type Image struct {
	pages pageMap
}

// PageNumbers returns the image's materialized page numbers in ascending
// order. Together with Page it is the enumeration the durable checkpoint
// encoder (internal/ckptio) serializes; sorting makes the encoding
// canonical, so identical images encode to identical bytes.
func (img *Image) PageNumbers() []uint32 {
	pns := make([]uint32, 0, len(img.pages))
	for pn := range img.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	return pns
}

// Page returns the image's page pn, or nil when the page was never
// materialized (its words are the Fill pattern). The returned slice is
// part of the immutable image: callers must not modify it.
func (img *Image) Page(pn uint32) []uint32 { return img.pages[pn] }

// NewImage builds an immutable Image from explicit page contents, the
// inverse of the PageNumbers/Page enumeration. It takes ownership of the
// map and every slice — callers (the checkpoint decoder) must not retain
// or mutate them. Every page must be exactly PageWords long.
func NewImage(pages map[uint32][]uint32) (*Image, error) {
	for pn, p := range pages {
		if len(p) != PageWords {
			return nil, fmt.Errorf("memsys: page %d has %d words, want %d", pn, len(p), PageWords)
		}
	}
	if pages == nil {
		pages = pageMap{}
	}
	return &Image{pages: pages}, nil
}

// Store is a sparse 32-bit word memory. Unwritten words read as
// Fill(addr), so independently constructed stores agree on cold contents.
// The zero value is an empty (all-Fill) store.
type Store struct {
	// frozen is the immutable checkpoint layer shared with Images (and
	// through them, with sibling stores). nil when no snapshot backs
	// this store. Read-only by contract.
	frozen pageMap
	// root is the live layer: the pages written since the last
	// Snapshot/Restore, under inner and leaf nodes allocated on the
	// first write beneath them and kept for reuse.
	root [1 << rootBits]atomic.Pointer[innerNode]
	// mu serializes page insertion, Snapshot and Restore.
	mu sync.Mutex
	// written lists the live layer's page numbers, so Snapshot and
	// Restore unpublish exactly those slots. Guarded by mu.
	written []uint32
	// free recycles pages discarded by Restore so a warm-started sweep
	// stops allocating once its first run has sized the pool. Guarded
	// by mu; pages here are unreachable from the live table.
	free []*page
}

// NewStore returns an empty (all-Fill) store.
func NewStore() *Store { return &Store{} }

// NewStoreFrom returns a store whose initial contents are the image
// (nil: cold). The image's pages are shared, never copied, until the
// new store writes into them.
func NewStoreFrom(img *Image) *Store {
	s := NewStore()
	if img != nil {
		s.frozen = img.pages
	}
	return s
}

// livePage returns the live page holding address a, or nil.
func (s *Store) livePage(a uint32) *page {
	inner := s.root[a>>rootShift].Load()
	if inner == nil {
		return nil
	}
	leaf := inner[a>>innerShift%(1<<innerBits)].Load()
	if leaf == nil {
		return nil
	}
	return leaf[a>>leafShift%(1<<leafBits)].Load()
}

// Read returns the word at address a.
func (s *Store) Read(a uint32) uint32 {
	if p := s.livePage(a); p != nil {
		return p[a%PageWords]
	}
	if len(s.frozen) != 0 {
		if p, ok := s.frozen[a/PageWords]; ok {
			return p[a%PageWords]
		}
	}
	return Fill(a)
}

// Write stores v at address a.
func (s *Store) Write(a, v uint32) {
	if p := s.livePage(a); p != nil {
		p[a%PageWords] = v
		return
	}
	s.materialize(a)[a%PageWords] = v
}

// slot returns the leaf slot of address a's page, allocating the inner
// and leaf nodes on its path when absent. Callers hold mu.
func (s *Store) slot(a uint32) *atomic.Pointer[page] {
	r := &s.root[a>>rootShift]
	inner := r.Load()
	if inner == nil {
		inner = new(innerNode)
		r.Store(inner)
	}
	in := &inner[a>>innerShift%(1<<innerBits)]
	leaf := in.Load()
	if leaf == nil {
		leaf = new(leafNode)
		in.Store(leaf)
	}
	return &leaf[a>>leafShift%(1<<leafBits)]
}

// materialize inserts the page holding address a into the live layer —
// copying the frozen page when the checkpoint holds one, else the Fill
// pattern — and publishes it only once filled, so concurrent readers
// never observe a page mid-copy.
func (s *Store) materialize(a uint32) *page {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := s.slot(a)
	if p := sl.Load(); p != nil {
		return p // another writer won the race
	}
	var p *page
	if n := len(s.free); n > 0 {
		p = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		p = new(page)
	}
	pn := a / PageWords
	if fz, ok := s.frozen[pn]; ok {
		copy(p[:], fz)
	} else {
		base := pn * PageWords
		for i := range p {
			p[i] = Fill(base + uint32(i))
		}
	}
	sl.Store(p)
	s.written = append(s.written, pn)
	return p
}

// unpublish empties the live layer, handing each page to keep in
// insertion order. Callers hold mu.
func (s *Store) unpublish(keep func(pn uint32, p *page)) {
	for _, pn := range s.written {
		sl := s.slot(pn * PageWords)
		keep(pn, sl.Load())
		sl.Store(nil)
	}
	s.written = s.written[:0]
}

// Snapshot freezes the store's current contents into an immutable Image.
// The store keeps running — its next write into any frozen page copies
// the page first — so the image is a true point-in-time checkpoint at
// copy-on-write cost. Must not race with Reads or Writes (take
// snapshots between runs, not mid-cycle).
func (s *Store) Snapshot() *Image {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.written) == 0 && s.frozen != nil {
		return &Image{pages: s.frozen} // unchanged since the last freeze
	}
	merged := make(pageMap, len(s.frozen)+len(s.written))
	for k, v := range s.frozen {
		merged[k] = v
	}
	s.unpublish(func(pn uint32, p *page) { merged[pn] = p[:] })
	s.frozen = merged
	return &Image{pages: merged}
}

// Restore rewinds the store to an image's contents (nil: cold) in
// O(pages written), discarding everything written since. The image
// stays immutable: the store copy-on-writes before dirtying any of its
// pages.
func (s *Store) Restore(img *Image) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if img != nil {
		s.frozen = img.pages
	} else {
		s.frozen = nil
	}
	// Live pages are exclusively ours (Snapshot moves shared pages into
	// the frozen layer), so recycle them instead of feeding the GC.
	s.unpublish(func(_ uint32, p *page) { s.free = append(s.free, p) })
}

// Gather reads the dense line of a vector: element i of the result is the
// word at v.Addr(i).
func (s *Store) Gather(v core.Vector) []uint32 {
	out := make([]uint32, v.Length)
	for i := uint32(0); i < v.Length; i++ {
		out[i] = s.Read(v.Addr(i))
	}
	return out
}

// Scatter writes the dense line data to the vector's strided addresses.
// When the vector self-overlaps (stride 0, or wrap collisions), later
// elements win, matching issue order in the hardware.
func (s *Store) Scatter(v core.Vector, data []uint32) {
	for i := uint32(0); i < v.Length && i < uint32(len(data)); i++ {
		s.Write(v.Addr(i), data[i])
	}
}

// GatherAt reads the dense line of an indexed gather: element i of the
// result is the word at base + idx[i] (wrapping modulo 2^32).
func (s *Store) GatherAt(base uint32, idx []uint32) []uint32 {
	out := make([]uint32, len(idx))
	for i, off := range idx {
		out[i] = s.Read(base + off)
	}
	return out
}

// ScatterAt writes the dense line data to the indexed addresses
// base + idx[i]. When indices collide, later elements win — the same
// issue-order rule Scatter applies to self-overlapping vectors.
func (s *Store) ScatterAt(base uint32, idx []uint32, data []uint32) {
	for i := 0; i < len(idx) && i < len(data); i++ {
		s.Write(base+idx[i], data[i])
	}
}
