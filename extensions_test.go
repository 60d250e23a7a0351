// Pins the extension-facing public surface: the bit-reversal helpers,
// and the shadow-space gather of Section 3.2 through the public API.
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

// shadowWalk runs the Impulse shadow-space walk of Section 3.2 on the
// paper PVA: a processor walking a 512-word shadow region densely makes
// the controller gather the strided region behind it, one line fill
// per 32-word line, which the PVA serves as 16 stride-19 vector reads.
func shadowWalk(t *testing.T) (Trace, Result) {
	t.Helper()
	var cmds []VectorCmd
	for off := uint32(0); off < 512; off += 32 {
		cmds = append(cmds, VectorCmd{Op: Read, V: Vector{Base: off * 19, Stride: 19, Length: 32}})
	}
	tr := Trace{Cmds: cmds}
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

// TestGatherThroughPVA: every word of the dense shadow walk is the
// strided word behind it.
func TestGatherThroughPVA(t *testing.T) {
	_, res := shadowWalk(t)
	if len(res.ReadData) != 16 {
		t.Fatalf("gathered %d lines, want 16", len(res.ReadData))
	}
	cold := Reference()
	for i, line := range res.ReadData {
		for j, w := range line {
			if want := cold.Peek(uint32(32*i+j) * 19); w != want {
				t.Fatalf("shadow word %d = %#x, want %#x", 32*i+j, w, want)
			}
		}
	}
}

// TestShadowBeatsDirectStridedWalk pins the pitch of the shadow walk.
// The conventional system has no shadow space, so the application
// walks the same strided words and each element drags a whole cache
// line.
func TestShadowBeatsDirectStridedWalk(t *testing.T) {
	tr, pvaRes := shadowWalk(t)
	lineRes, err := NewCacheLineSerial().Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if pvaRes.Cycles != 319 || lineRes.Cycles != 6080 {
		t.Fatalf("shadow+PVA %d cycles, strided cache-line walk %d; want 319 and 6080 (19.1x)",
			pvaRes.Cycles, lineRes.Cycles)
	}
}
