package core

import (
	"testing"
	"testing/quick"
)

func TestNewGeometry(t *testing.T) {
	for _, banks := range []uint32{1, 2, 4, 8, 16, 32, 1024} {
		g, err := NewGeometry(banks)
		if err != nil {
			t.Fatalf("NewGeometry(%d): %v", banks, err)
		}
		if g.M != banks {
			t.Errorf("NewGeometry(%d).M = %d", banks, g.M)
		}
		if uint32(1)<<g.Log2Banks() != banks {
			t.Errorf("NewGeometry(%d): log2 = %d", banks, g.Log2Banks())
		}
	}
	for _, banks := range []uint32{0, 3, 6, 12, 100} {
		if _, err := NewGeometry(banks); err == nil {
			t.Errorf("NewGeometry(%d): expected error", banks)
		}
	}
}

func TestMustGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGeometry(3) did not panic")
		}
	}()
	MustGeometry(3)
}

func TestDecodeBank(t *testing.T) {
	g := MustGeometry(16)
	cases := []struct {
		addr, want uint32
	}{
		{0, 0}, {1, 1}, {15, 15}, {16, 0}, {17, 1}, {255, 15}, {256, 0},
	}
	for _, c := range cases {
		if got := g.DecodeBank(c.addr); got != c.want {
			t.Errorf("DecodeBank(%d) = %d, want %d", c.addr, got, c.want)
		}
	}
}

func TestDecomposeStride(t *testing.T) {
	cases := []struct {
		x     uint32
		sigma uint32
		s     uint
	}{
		{1, 1, 0}, {2, 1, 1}, {3, 3, 0}, {6, 3, 1}, {7, 7, 0},
		{8, 1, 3}, {12, 3, 2}, {19, 19, 0}, {40, 5, 3}, {1 << 31, 1, 31},
	}
	for _, c := range cases {
		sigma, s := DecomposeStride(c.x)
		if sigma != c.sigma || s != c.s {
			t.Errorf("DecomposeStride(%d) = (%d, %d), want (%d, %d)", c.x, sigma, s, c.sigma, c.s)
		}
	}
}

func TestDecomposeStrideZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DecomposeStride(0) did not panic")
		}
	}()
	DecomposeStride(0)
}

func TestOddInverse(t *testing.T) {
	for k := uint(1); k <= 16; k++ {
		mod := uint32(1) << k
		for a := uint32(1); a < mod && a < 4096; a += 2 {
			inv := OddInverse(a, k)
			if inv >= mod {
				t.Fatalf("OddInverse(%d, %d) = %d out of range", a, k, inv)
			}
			if a*inv&(mod-1) != 1 {
				t.Fatalf("OddInverse(%d, %d) = %d: product %d mod 2^%d != 1", a, k, inv, a*inv, k)
			}
		}
	}
}

func TestOddInverse32(t *testing.T) {
	for _, a := range []uint32{1, 3, 5, 0xdeadbeef | 1, ^uint32(0)} {
		if got := a * OddInverse(a, 32); got != 1 {
			t.Errorf("OddInverse(%d, 32): product = %d", a, got)
		}
	}
}

func TestOddInverseEvenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OddInverse(2, 4) did not panic")
		}
	}()
	OddInverse(2, 4)
}

func TestClassifyDegenerate(t *testing.T) {
	g := MustGeometry(16)
	for _, s := range []uint32{0, 16, 32, 48, 160} {
		c := g.Classify(s)
		if c.Sm != 0 || c.Delta != 1 || c.K1 != 0 || c.S2 != 4 {
			t.Errorf("Classify(%d) = %+v, want degenerate", s, c)
		}
	}
}

func TestClassifyExamples(t *testing.T) {
	g := MustGeometry(16)
	cases := []struct {
		stride uint32
		sigma  uint32
		s2     uint
		delta  uint32
	}{
		{1, 1, 0, 16},
		{2, 1, 1, 8},
		{4, 1, 2, 4},
		{8, 1, 3, 2},
		{10, 5, 1, 8},
		{12, 3, 2, 4},
		{19, 3, 0, 16}, // 19 mod 16 = 3
	}
	for _, c := range cases {
		got := g.Classify(c.stride)
		if got.Sigma != c.sigma || got.S2 != c.s2 || got.Delta != c.delta {
			t.Errorf("Classify(%d) = %+v, want sigma=%d s=%d delta=%d", c.stride, got, c.sigma, c.s2, c.delta)
		}
	}
}

// TestPaperStride10Example reproduces the worked example under Lemma 4.2:
// with M = 16, consecutive elements of a stride-10 vector hit banks
// 2, 12, 6, 0, 10, 4, 14, 8, 2, ... (base in bank 2).
func TestPaperStride10Example(t *testing.T) {
	g := MustGeometry(16)
	v := Vector{Base: 2, Stride: 10, Length: 9}
	want := []uint32{2, 12, 6, 0, 10, 4, 14, 8, 2}
	for i, w := range want {
		if got := g.DecodeBank(v.Addr(uint32(i))); got != w {
			t.Errorf("element %d: bank %d, want %d", i, got, w)
		}
	}
	// delta = 2^(m-s) with s = 1 (10 = 5*2) -> 8: bank 2 holds V[0] and V[8].
	if d := g.NextHit(10); d != 8 {
		t.Errorf("NextHit(10) = %d, want 8", d)
	}
}

func TestFirstHitAgainstBruteExhaustive(t *testing.T) {
	for _, banks := range []uint32{1, 2, 4, 8, 16, 32} {
		g := MustGeometry(banks)
		for stride := uint32(0); stride <= 2*banks+3; stride++ {
			for base := uint32(0); base < banks; base++ {
				for _, length := range []uint32{0, 1, 2, 3, banks / 2, banks, 2*banks + 1} {
					v := Vector{Base: base, Stride: stride, Length: length}
					for b := uint32(0); b < banks; b++ {
						want := BruteFirstHitWord(g, v, b)
						if got := g.FirstHit(v, b); got != want {
							t.Fatalf("M=%d FirstHit(%+v, %d) = %d, want %d", banks, v, b, got, want)
						}
					}
				}
			}
		}
	}
}

func TestSubVectorAgainstBruteExhaustive(t *testing.T) {
	g := MustGeometry(16)
	for stride := uint32(0); stride <= 40; stride++ {
		for _, base := range []uint32{0, 1, 5, 15, 16, 100} {
			for _, length := range []uint32{1, 7, 16, 32, 33} {
				v := Vector{Base: base, Stride: stride, Length: length}
				var total uint32
				for b := uint32(0); b < g.M; b++ {
					want := BruteSubVectorWord(g, v, b)
					got := g.SubVector(v, b)
					if got.First != want.First || got.Count != want.Count {
						t.Fatalf("SubVector(%+v, %d) = %+v, want %+v", v, b, got, want)
					}
					if want.Count > 1 && got.Delta != want.Delta {
						t.Fatalf("SubVector(%+v, %d) delta = %d, want %d", v, b, got.Delta, want.Delta)
					}
					total += got.Count
				}
				if total != length {
					t.Fatalf("stride %d base %d: subvector counts sum to %d, want %d", stride, base, total, length)
				}
			}
		}
	}
}

// TestLemma41 checks that the bank-hit pattern depends only on the stride
// modulo M.
func TestLemma41(t *testing.T) {
	g := MustGeometry(16)
	for stride := uint32(0); stride < 16; stride++ {
		for _, mult := range []uint32{1, 2, 3, 7} {
			big := stride + mult*g.M
			v1 := Vector{Base: 3, Stride: stride, Length: 64}
			v2 := Vector{Base: 3, Stride: big, Length: 64}
			for i := uint32(0); i < 64; i++ {
				if g.DecodeBank(v1.Addr(i)) != g.DecodeBank(v2.Addr(i)) {
					t.Fatalf("lemma 4.1 violated: stride %d vs %d at element %d", stride, big, i)
				}
			}
		}
	}
}

// TestLemma42 checks that a vector hits bank b iff the distance from b0
// is a multiple of 2^s.
func TestLemma42(t *testing.T) {
	g := MustGeometry(32)
	for stride := uint32(1); stride < 64; stride++ {
		c := g.Classify(stride)
		v := Vector{Base: 7, Stride: stride, Length: 4 * g.M}
		b0 := g.DecodeBank(v.Base)
		for b := uint32(0); b < g.M; b++ {
			d := (b - b0) & (g.M - 1)
			hits := BruteFirstHitWord(g, v, b) != NoHit
			isMultiple := c.Sm == 0 && d == 0 || c.Sm != 0 && d&(uint32(1)<<c.S2-1) == 0
			if hits != isMultiple {
				t.Fatalf("lemma 4.2 violated: stride %d bank %d d %d hits=%v multiple=%v", stride, b, d, hits, isMultiple)
			}
		}
	}
}

// TestTheorem44 checks delta = 2^(m-s): if a bank holds V[i], it also
// holds V[i+delta], and holds nothing strictly between.
func TestTheorem44(t *testing.T) {
	g := MustGeometry(16)
	for stride := uint32(1); stride < 48; stride++ {
		delta := g.NextHit(stride)
		v := Vector{Base: 11, Stride: stride, Length: 3 * g.M}
		for i := uint32(0); i+delta < v.Length; i++ {
			b := g.DecodeBank(v.Addr(i))
			if got := g.DecodeBank(v.Addr(i + delta)); got != b {
				t.Fatalf("stride %d: V[%d] in bank %d but V[%d+delta] in bank %d", stride, i, b, i, got)
			}
			for j := i + 1; j < i+delta; j++ {
				if g.DecodeBank(v.Addr(j)) == b {
					t.Fatalf("stride %d: delta %d not minimal, V[%d] also in bank %d", stride, delta, j, b)
				}
			}
		}
	}
}

// TestHitBanks checks that a long vector visits M/2^s banks, the
// parallelism the PVA can exploit (Section 6.3.1), and that this count is
// the hit distance NextHit.
func TestHitBanks(t *testing.T) {
	g := MustGeometry(16)
	cases := []struct{ stride, want uint32 }{
		{1, 16}, {2, 8}, {4, 4}, {8, 2}, {16, 1}, {19, 16}, {10, 8}, {12, 4},
	}
	for _, c := range cases {
		v := Vector{Base: 11, Stride: c.stride, Length: 2 * g.M}
		banks := map[uint32]bool{}
		for i := uint32(0); i < v.Length; i++ {
			banks[g.DecodeBank(v.Addr(i))] = true
		}
		if got := uint32(len(banks)); got != c.want {
			t.Errorf("stride %d visits %d banks, want %d", c.stride, got, c.want)
		}
		if got := g.NextHit(c.stride); got != c.want {
			t.Errorf("NextHit(%d) = %d, want M/2^s = %d", c.stride, got, c.want)
		}
	}
}

func TestFirstHitQuick(t *testing.T) {
	g := MustGeometry(64)
	f := func(base, stride uint32, length uint16, bank uint8) bool {
		v := Vector{Base: base, Stride: stride, Length: uint32(length)%512 + 1}
		b := uint32(bank) & (g.M - 1)
		return g.FirstHit(v, b) == BruteFirstHitWord(g, v, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestVectorAddrWraps(t *testing.T) {
	v := Vector{Base: ^uint32(0) - 1, Stride: 3, Length: 4}
	if got := v.Addr(1); got != 1 {
		t.Errorf("Addr(1) = %d, want wrap to 1", got)
	}
}

func TestZeroLengthVector(t *testing.T) {
	g := MustGeometry(16)
	v := Vector{Base: 0, Stride: 1, Length: 0}
	if got := g.FirstHit(v, 0); got != NoHit {
		t.Errorf("FirstHit of empty vector = %d, want NoHit", got)
	}
	h := g.SubVector(v, 0)
	if h.Count != 0 || h.First != NoHit {
		t.Errorf("SubVector of empty vector = %+v", h)
	}
}
