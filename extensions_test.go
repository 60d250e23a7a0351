// Pins the extension-facing public surface: the Impulse-style shadow
// space, the bit-reversal helpers and the superpage TLB indexed
// translation.
package pva

import (
	"strings"
	"testing"
)

func TestShadowSpaceTranslate(t *testing.T) {
	s, err := NewShadowSpace([]ShadowMapping{
		{ShadowBase: 1 << 16, Length: 64, Base: 100, Stride: 19},
		{ShadowBase: 1<<16 + 64, Length: 32, Base: 5000, Stride: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 64; i++ {
		got, ok := s.Translate(1<<16 + i)
		if !ok || got != 100+19*i {
			t.Fatalf("shadow word %d -> (%d, %v), want (%d, true)", i, got, ok, 100+19*i)
		}
	}
	if got, ok := s.Translate(1<<16 + 64 + 3); !ok || got != 5000+4*3 {
		t.Fatalf("second region word 3 -> (%d, %v)", got, ok)
	}
	if _, ok := s.Translate(42); ok {
		t.Fatal("unmapped address translated")
	}
	if _, err := NewShadowSpace([]ShadowMapping{
		{ShadowBase: 0, Length: 64, Base: 0, Stride: 1},
		{ShadowBase: 32, Length: 64, Base: 0, Stride: 1},
	}); err == nil {
		t.Fatal("overlapping shadow regions accepted")
	}
}

func TestBitReverse(t *testing.T) {
	cases := []struct {
		x    uint32
		bits uint
		want uint32
	}{
		{0, 4, 0}, {1, 4, 8}, {2, 4, 4}, {3, 4, 12},
		{1, 3, 4}, {6, 3, 3}, {1, 10, 512},
	}
	for _, c := range cases {
		if got := BitReverse(c.x, c.bits); got != c.want {
			t.Errorf("BitReverse(%d, %d) = %d, want %d", c.x, c.bits, got, c.want)
		}
	}
	// An involution on its domain.
	for x := uint32(0); x < 256; x++ {
		if got := BitReverse(BitReverse(x, 8), 8); got != x {
			t.Fatalf("BitReverse not an involution at %d (got %d)", x, got)
		}
	}
}

func TestBitRevAddresses(t *testing.T) {
	addrs := BitRevAddresses(1000, 3, 2)
	if len(addrs) != 8 {
		t.Fatalf("len = %d, want 8", len(addrs))
	}
	for i, a := range addrs {
		want := 1000 + BitReverse(uint32(i), 3)*2
		if a != want {
			t.Errorf("addrs[%d] = %d, want %d", i, a, want)
		}
	}
}

func TestTranslateIndexedTLB(t *testing.T) {
	tlb := IdentityTLB(1<<16, 4096)
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
	// Indexed translation pays one lookup per element — the traffic the
	// strided SplitVector path avoids.
	if got := tlb.Lookups - before; got != len(idx) {
		t.Errorf("TLB lookups = %d, want %d", got, len(idx))
	}
	if _, err := TranslateIndexed(tlb, 1<<16, []uint32{0}); err == nil {
		t.Fatal("unmapped indexed access translated")
	}
}

func TestKernelByNameListsValid(t *testing.T) {
	if _, err := KernelByName("gather"); err != nil {
		t.Fatalf("gather not found: %v", err)
	}
	if _, err := KernelByName("spmv"); err != nil {
		t.Fatalf("spmv not found: %v", err)
	}
	_, err := KernelByName("nope")
	if err == nil {
		t.Fatal("unknown kernel accepted")
	}
	for _, want := range []string{"copy", "vaxpy", "gather", "scatter", "spmv"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name valid kernel %q", err, want)
		}
	}
}
