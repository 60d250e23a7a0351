package core

import "testing"

// PaperNextHit ports the recursive NextHit(theta, stride, NM) C listing
// printed in Section 4.1.2 of the paper. The listing comes from a draft
// ("Draft. Do not distribute", UUCS-99-006) and is kept verbatim: the
// paper rejects this algorithm for hardware because of its
// data-dependent divisions, so nothing outside the tests runs it. The C
// code reads the block size N from a global; here it is the lineWords
// parameter. All arithmetic is unsigned, as in the C.
//
// Specification (what the listing is meant to compute): the least
// delta >= 1 such that (theta + delta*stride) mod NM < N — i.e. the index
// increment after which a bank holding an element at block offset theta
// holds another element.
func PaperNextHit(theta, stride, nm, lineWords uint32) uint32 {
	n := lineWords
	if stride < n {
		if theta+stride < n {
			return 1
		}
		p3Plus1 := (nm - theta) / stride
		if p3Plus1 != 0 && (theta+p3Plus1*stride)%nm < n {
			return p3Plus1
		}
		return p3Plus1 + 1
	}
	s1 := nm % stride
	if s1 <= theta {
		return nm / stride
	}
	var p2 uint32
	if s1 < n {
		p2 = (stride-n+theta)/s1 + 1
	} else {
		s2 := stride % s1
		p3Plus1 := PaperNextHit(theta, s2, s1, lineWords)
		p2 = (p3Plus1*stride + theta) / s1
	}
	carry := uint32(1)
	if (p2*nm)%stride <= stride-n+theta {
		carry = 0
	}
	p1Minus1 := (p2 * nm) / stride
	return p1Minus1 + carry
}

// bruteNextHitLine is the serial-expansion oracle for PaperNextHit: the
// least delta >= 1 with (theta + delta*stride) mod nm < n. For theta < n
// it exists and is at most nm, where the residue returns to theta.
func bruteNextHitLine(theta, stride, nm, n uint32) uint32 {
	d := uint32(1)
	for (theta+d*stride)%nm >= n {
		d++
	}
	return d
}

// lineBank is the cache-line interleaved decode of Section 4.1.1: the
// bank of word address a among m banks of n-word blocks, (a/n) mod m.
func lineBank(a, m, n uint32) uint32 { return a / n % m }

// TestPaperNextHitCharacterization holds the paper's draft listing to
// the oracle on every (theta, stride) of three small geometries: the
// port agrees on all 14, 124 and 248 cases, so any disagreement is a
// regression in the port.
func TestPaperNextHitCharacterization(t *testing.T) {
	for _, sp := range []struct{ m, n uint32 }{{4, 2}, {8, 4}, {4, 8}} {
		nm := sp.m * sp.n
		for stride := uint32(1); stride < nm; stride++ {
			for theta := uint32(0); theta < sp.n; theta++ {
				want := bruteNextHitLine(theta, stride, nm, sp.n)
				if got := PaperNextHit(theta, stride, nm, sp.n); got != want {
					t.Errorf("M=%d N=%d: PaperNextHit(theta=%d, stride=%d) = %d, oracle %d",
						sp.m, sp.n, theta, stride, got, want)
				}
			}
		}
	}
}

// TestPaperNextHitFastPath checks the one branch of the listing that is
// unambiguous: stride < N and theta+stride < N means the very next
// element is still in the same block, so delta = 1.
func TestPaperNextHitFastPath(t *testing.T) {
	const m, n = 8, 4
	nm := uint32(m * n)
	for stride := uint32(1); stride < n; stride++ {
		for theta := uint32(0); theta+stride < n; theta++ {
			if got := PaperNextHit(theta, stride, nm, n); got != 1 {
				t.Errorf("PaperNextHit(%d, %d) = %d, want 1", theta, stride, got)
			}
		}
	}
}

// TestPaperNextHitTermination ensures the recursive port terminates on
// the full small parameter space (the draft recursion bottoms out when
// the running remainder drops below N).
func TestPaperNextHitTermination(t *testing.T) {
	const m, n = 16, 8
	nm := uint32(m * n)
	for stride := uint32(1); stride < nm; stride++ {
		for theta := uint32(0); theta < n; theta++ {
			_ = PaperNextHit(theta, stride, nm, n) // must not hang or panic
		}
	}
}

// TestPaperSection412Examples reproduces the bank sequences of the four
// worked examples in Section 4.1.2 (M = 8 banks, N = 4 words per block).
func TestPaperSection412Examples(t *testing.T) {
	const m, n = 8, 4
	cases := []struct {
		v     Vector
		banks []uint32
	}{
		{Vector{Base: 0, Stride: 8, Length: 16}, []uint32{0, 2, 4, 6, 0, 2, 4, 6, 0, 2, 4, 6, 0, 2, 4, 6}},
		{Vector{Base: 5, Stride: 8, Length: 16}, []uint32{1, 3, 5, 7, 1, 3, 5, 7, 1, 3, 5, 7, 1, 3, 5, 7}},
		{Vector{Base: 0, Stride: 9, Length: 4}, []uint32{0, 2, 4, 6}},
		{Vector{Base: 0, Stride: 9, Length: 10}, []uint32{0, 2, 4, 6, 1, 3, 5, 7, 2, 4}},
	}
	for _, c := range cases {
		for i, want := range c.banks {
			if got := lineBank(c.v.Addr(uint32(i)), m, n); got != want {
				t.Errorf("vector %+v element %d: bank %d, want %d", c.v, i, got, want)
			}
		}
	}
}

// TestWordInterleaveEquivalence validates the Section 4.1.3 reduction:
// a cache-line interleaved system behaves, for hit purposes, like a
// word-interleaved system with N*M logical banks. On that logical system
// the simple word-interleave FirstHit agrees with serial expansion, and
// every hit of logical bank la lands in physical bank la/N.
func TestWordInterleaveEquivalence(t *testing.T) {
	const m, n = 8, 4         // physical: M=8, N=4
	wg := MustGeometry(m * n) // logical: NM = 32 single-word banks
	for stride := uint32(0); stride <= 70; stride++ {
		for base := uint32(0); base < 32; base += 5 {
			v := Vector{Base: base, Stride: stride, Length: 128}
			for la := uint32(0); la < 32; la++ {
				// An element hits logical bank la iff its address mod NM == la.
				gotWord := wg.FirstHit(v, la)
				want := NoHit
				for i := uint32(0); i < v.Length; i++ {
					if v.Addr(i)&31 == la {
						want = i
						break
					}
				}
				if gotWord != want {
					t.Fatalf("logical bank %d stride %d base %d: word FirstHit %d, want %d",
						la, stride, base, gotWord, want)
				}
				if gotWord != NoHit {
					if pb := lineBank(v.Addr(gotWord), m, n); pb != la/n {
						t.Fatalf("logical bank %d maps to physical %d but element lands in %d", la, la/n, pb)
					}
				}
			}
		}
	}
}
