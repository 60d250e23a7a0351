package vcmd

import (
	"testing"
	"testing/quick"

	"pva/internal/core"
)

func TestTLBLookup(t *testing.T) {
	tlb := MustNewTLB([]Mapping{
		{VBase: 0, PBase: 1 << 20, Words: 1024},
		{VBase: 4096, PBase: 1 << 21, Words: 4096},
	})
	cases := []struct {
		v     uint32
		p     uint32
		words uint32
		ok    bool
	}{
		{0, 1 << 20, 1024, true},
		{1023, 1<<20 + 1023, 1024, true},
		{1024, 0, 0, false}, // hole between mappings
		{4096, 1 << 21, 4096, true},
		{8191, 1<<21 + 4095, 4096, true},
		{8192, 0, 0, false},
	}
	for _, c := range cases {
		p, w, ok := tlb.Lookup(c.v)
		if ok != c.ok || (ok && (p != c.p || w != c.words)) {
			t.Errorf("Lookup(%d) = (%d,%d,%v), want (%d,%d,%v)", c.v, p, w, ok, c.p, c.words, c.ok)
		}
	}
}

func TestTLBValidation(t *testing.T) {
	if _, err := NewTLB([]Mapping{{VBase: 0, PBase: 0, Words: 1000}}); err == nil {
		t.Error("non-power-of-two page accepted")
	}
	if _, err := NewTLB([]Mapping{{VBase: 10, PBase: 0, Words: 1024}}); err == nil {
		t.Error("misaligned virtual base accepted")
	}
	if _, err := NewTLB([]Mapping{
		{VBase: 0, PBase: 0, Words: 1024},
		{VBase: 512, PBase: 4096, Words: 1024},
	}); err == nil {
		t.Error("overlapping mappings accepted")
	}
}

func TestSplitVectorContainment(t *testing.T) {
	// Every emitted subvector must stay within one superpage and the
	// concatenation must cover exactly the original elements in order.
	tlb := Identity(1<<20, 4096)
	for _, stride := range []uint32{1, 2, 3, 5, 8, 19, 100, 1000} {
		for _, base := range []uint32{0, 1, 4000, 4095, 5000} {
			v := core.Vector{Base: base, Stride: stride, Length: 500}
			subs, err := SplitVector(tlb, v)
			if err != nil {
				t.Fatalf("stride %d base %d: %v", stride, base, err)
			}
			var elem uint32
			for _, sv := range subs {
				if sv.Length == 0 {
					t.Fatalf("stride %d: empty subvector", stride)
				}
				firstPage := sv.Base / 4096
				lastPage := sv.Addr(sv.Length-1) / 4096
				if firstPage != lastPage {
					t.Fatalf("stride %d: subvector %+v crosses pages %d..%d",
						stride, sv, firstPage, lastPage)
				}
				for i := uint32(0); i < sv.Length; i++ {
					want := v.Addr(elem) // identity mapping: phys == virt
					if sv.Addr(i) != want {
						t.Fatalf("stride %d: element %d at %d, want %d", stride, elem, sv.Addr(i), want)
					}
					elem++
				}
			}
			if elem != v.Length {
				t.Fatalf("stride %d base %d: covered %d of %d elements", stride, base, elem, v.Length)
			}
		}
	}
}

func TestSplitVectorTranslates(t *testing.T) {
	tlb := MustNewTLB([]Mapping{
		{VBase: 0, PBase: 1 << 16, Words: 1024},
		{VBase: 1024, PBase: 1 << 18, Words: 1024},
	})
	v := core.Vector{Base: 1000, Stride: 8, Length: 32}
	subs, err := SplitVector(tlb, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) < 2 {
		t.Fatalf("expected a page crossing, got %d subvectors", len(subs))
	}
	if subs[0].Base != 1<<16+1000 {
		t.Errorf("first subvector base %d", subs[0].Base)
	}
	// The first element of the second page: virtual 1000+8k >= 1024.
	if subs[1].Base != 1<<18+(1000+8*subs[0].Length-1024) {
		t.Errorf("second subvector base %d (first len %d)", subs[1].Base, subs[0].Length)
	}
}

func TestSplitVectorUnmapped(t *testing.T) {
	tlb := MustNewTLB([]Mapping{{VBase: 0, PBase: 0, Words: 1024}})
	if _, err := SplitVector(tlb, core.Vector{Base: 512, Stride: 4, Length: 1000}); err == nil {
		t.Error("walk off the mapped region accepted")
	}
	if _, err := SplitVector(tlb, core.Vector{Base: 0, Stride: 0, Length: 4}); err == nil {
		t.Error("zero stride accepted")
	}
}

// TestSplitVectorLowerBound verifies the division-free count never
// exceeds the exact element count on the page (the property that makes
// the fast path safe), and wastes at most ~half the page's elements per
// lookup for non-power-of-two strides.
func TestSplitVectorLowerBound(t *testing.T) {
	tlb := Identity(1<<22, 4096)
	f := func(strideRaw uint16, baseRaw uint32) bool {
		stride := uint32(strideRaw)%200 + 1
		base := baseRaw % (1 << 20)
		v := core.Vector{Base: base, Stride: stride, Length: 200}
		subs, err := SplitVector(tlb, v)
		if err != nil {
			return false
		}
		for _, sv := range subs {
			if sv.Addr(sv.Length-1)/4096 != sv.Base/4096 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSplitVectorPow2StrideExact(t *testing.T) {
	// For power-of-two strides the lower bound is exact: one subvector
	// per touched page.
	tlb := Identity(1<<20, 4096)
	v := core.Vector{Base: 0, Stride: 8, Length: 2048} // spans 4 pages exactly
	subs, err := SplitVector(tlb, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 4 {
		t.Fatalf("%d subvectors, want 4", len(subs))
	}
	for _, sv := range subs {
		if sv.Length != 512 {
			t.Fatalf("subvector length %d, want 512", sv.Length)
		}
	}
}

func TestLookupsCounted(t *testing.T) {
	tlb := Identity(1<<16, 1024)
	before := tlb.Lookups
	if _, err := SplitVector(tlb, core.Vector{Base: 0, Stride: 1, Length: 3000}); err != nil {
		t.Fatal(err)
	}
	if tlb.Lookups-before < 3 {
		t.Errorf("expected >=3 lookups for a 3-page walk, got %d", tlb.Lookups-before)
	}
}

// TestTranslateIndexedTLB: an indexed access translates element by
// element through the TLB, one lookup each — the traffic the strided
// SplitVector path avoids — and an unmapped element fails.
func TestTranslateIndexedTLB(t *testing.T) {
	tlb := Identity(1<<16, 4096)
	before := tlb.Lookups
	idx := []uint32{0, 5000, 9999, 12345}
	out, err := TranslateIndexed(tlb, 100, idx)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range idx {
		if out[i] != 100+off {
			t.Errorf("out[%d] = %d, want %d", i, out[i], 100+off)
		}
	}
	if got := tlb.Lookups - before; got != len(idx) {
		t.Errorf("TLB lookups = %d, want %d", got, len(idx))
	}
	if _, err := TranslateIndexed(tlb, 1<<16, []uint32{0}); err == nil {
		t.Fatal("unmapped indexed access translated")
	}
}

// BenchmarkSplitVector measures the division-free page split of Section
// 4.3.2 (the front-end fast path).
func BenchmarkSplitVector(b *testing.B) {
	b.ReportAllocs()
	tlb := Identity(1<<24, 4096)
	v := core.Vector{Base: 12345, Stride: 19, Length: 4096}
	for i := 0; i < b.N; i++ {
		if _, err := SplitVector(tlb, v); err != nil {
			b.Fatal(err)
		}
	}
}
