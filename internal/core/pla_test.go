package core

import "testing"

func TestK1PLAMatchesGeometry(t *testing.T) {
	for _, banks := range []uint32{2, 4, 16, 64} {
		g := MustGeometry(banks)
		pla := NewK1PLA(g)
		for stride := uint32(0); stride < 3*banks; stride++ {
			if got, want := pla.NextHit(stride), g.NextHit(stride); got != want {
				t.Fatalf("M=%d: PLA NextHit(%d) = %d, want %d", banks, stride, got, want)
			}
			for base := uint32(0); base < banks; base += 3 {
				v := Vector{Base: base, Stride: stride, Length: 2 * banks}
				for b := uint32(0); b < banks; b++ {
					if got, want := pla.FirstHit(v, b), g.FirstHit(v, b); got != want {
						t.Fatalf("M=%d: PLA FirstHit(%+v, %d) = %d, want %d", banks, v, b, got, want)
					}
				}
			}
		}
	}
}

func TestPLAZeroLength(t *testing.T) {
	g := MustGeometry(8)
	v := Vector{Base: 0, Stride: 1, Length: 0}
	if got := NewK1PLA(g).FirstHit(v, 0); got != NoHit {
		t.Errorf("K1PLA empty vector = %d", got)
	}
}

func BenchmarkFirstHitCombinational(b *testing.B) {
	g := MustGeometry(16)
	v := Vector{Base: 7, Stride: 19, Length: 32}
	for i := 0; i < b.N; i++ {
		g.FirstHit(v, uint32(i)&15)
	}
}

func BenchmarkFirstHitK1PLA(b *testing.B) {
	g := MustGeometry(16)
	pla := NewK1PLA(g)
	v := Vector{Base: 7, Stride: 19, Length: 32}
	for i := 0; i < b.N; i++ {
		pla.FirstHit(v, uint32(i)&15)
	}
}
