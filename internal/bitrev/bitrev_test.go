package bitrev

import (
	"testing"
	"testing/quick"
)

func TestReverseKnown(t *testing.T) {
	cases := []struct {
		x    uint32
		bits uint
		want uint32
	}{
		{0, 4, 0}, {1, 4, 8}, {2, 4, 4}, {3, 4, 12}, {15, 4, 15},
		{1, 1, 1}, {1, 8, 128}, {0b1101, 4, 0b1011},
	}
	for _, c := range cases {
		if got := Reverse(c.x, c.bits); got != c.want {
			t.Errorf("Reverse(%d, %d) = %d, want %d", c.x, c.bits, got, c.want)
		}
	}
}

func TestReverseInvolution(t *testing.T) {
	f := func(x uint32) bool {
		x &= 0xfff
		return Reverse(Reverse(x, 12), 12) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseIsPermutation(t *testing.T) {
	const bits = 6
	seen := map[uint32]bool{}
	for x := uint32(0); x < 1<<bits; x++ {
		r := Reverse(x, bits)
		if r >= 1<<bits || seen[r] {
			t.Fatalf("Reverse not a permutation at %d -> %d", x, r)
		}
		seen[r] = true
	}
}

func TestAddresses(t *testing.T) {
	a := Addresses(100, 3, 2)
	want := []uint32{100, 108, 104, 112, 102, 110, 106, 114}
	for i := range want {
		if a[i] != want[i] {
			t.Errorf("addr[%d] = %d, want %d", i, a[i], want[i])
		}
	}
}

// TestWordVsBlockInterleaveParallelism verifies the paper's Section 7
// observation: bit-reversed access is nearly sequential on a
// word-interleaved system but parallel on a block-interleaved one.
func TestWordVsBlockInterleaveParallelism(t *testing.T) {
	const bits = 10 // 1024 elements
	addrs := Addresses(0, bits, 1)
	word := func(a uint32) uint32 { return a % 16 }
	block := func(a uint32) uint32 { return (a / 32) % 16 } // cache-line interleave
	w := Analyze(addrs, 32, word)
	b := Analyze(addrs, 32, block)
	t.Logf("word interleave: mean %.1f banks/chunk; block: mean %.1f", w.MeanBanksPerChunk, b.MeanBanksPerChunk)
	if w.MeanBanksPerChunk > 4 {
		t.Errorf("word interleave shows %.1f banks/chunk; expected near-sequential", w.MeanBanksPerChunk)
	}
	if b.MeanBanksPerChunk < 8 {
		t.Errorf("block interleave shows %.1f banks/chunk; expected parallel", b.MeanBanksPerChunk)
	}
}

func TestAnalyzeEdges(t *testing.T) {
	a := Analyze(nil, 8, func(a uint32) uint32 { return 0 })
	if a.Chunks != 0 || a.MinBanksPerChunk != 0 {
		t.Errorf("empty analysis = %+v", a)
	}
	defer func() {
		if recover() == nil {
			t.Error("chunkLen 0 did not panic")
		}
	}()
	Analyze([]uint32{1}, 0, func(a uint32) uint32 { return 0 })
}
