// Pins the extension-facing public surface: the bit-reversal helpers.
package pva

import (
	"strings"
	"testing"
)

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
