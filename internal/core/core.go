// Package core implements the Parallel Vector Access hit mathematics of
// Mathew et al., "Design of a Parallel Vector Access Unit for SDRAM Memory
// Systems" (HPCA 2000), Section 4.
//
// A base-stride vector V = <B, S, L> names elements V[i] at word address
// B + i*S. Given M = 2^m word-interleaved banks, each bank controller must
// answer, without expanding the vector serially:
//
//   - FirstHit(V, b): the index of the first element of V residing in
//     bank b (or "no hit"), and
//   - NextHit(S): the index increment delta such that whenever a bank
//     holds V[i] it also holds V[i+delta].
//
// Writing S mod M = sigma * 2^s with sigma odd, the paper proves
// (Theorems 4.3 and 4.4):
//
//	K_i     = (K_1 * i) mod 2^(m-s)   where i = d >> s, d = (b - b0) mod M
//	delta   = 2^(m-s)
//
// where K_1 is the least index hitting the bank at distance 2^s from
// b0 = DecodeBank(V.B); K_1 is the multiplicative inverse of sigma modulo
// 2^(m-s). Banks whose distance d from b0 is not a multiple of 2^s hold no
// element at all (Lemma 4.2), and only S mod M matters (Lemma 4.1).
//
// This package provides those closed forms (Geometry), the stride-indexed
// PLA every bank controller evaluates them with (pla.go), and brute-force
// oracles used by the test suite (brute.go). It has no solver for the
// general cache-line interleaved problem of Section 4.1.2, which the
// paper rejects for hardware because of its data-dependent divisions:
// the simulator's line-interleaved decoders claim elements address by
// address. The tests keep that section's worked examples, its draft
// NextHit listing and the Section 4.1.3 logical-bank reduction.
package core

import "fmt"

// NoHit is returned by FirstHit variants when the bank holds no element
// of the vector. It is larger than any legal vector index (vector
// commands carry at most a cache line of elements).
const NoHit = ^uint32(0)

// Vector is a base-stride vector command <B, S, L>: L elements at word
// addresses B, B+S, B+2S, ... Strides are measured in machine words, as
// in the paper.
type Vector struct {
	Base   uint32 // word address of V[0]
	Stride uint32 // element spacing in words; 0 means all elements alias Base
	Length uint32 // number of elements
}

// Addr returns the word address of V[i]. Arithmetic wraps modulo 2^32,
// exactly as the 32-bit address datapath of the hardware does.
func (v Vector) Addr(i uint32) uint32 { return v.Base + i*v.Stride }

// Geometry describes an M = 2^m bank word-interleaved memory system and
// precomputes nothing; it is the pure combinational form of the hit
// logic. See PLA for the table-driven hardware model.
type Geometry struct {
	M uint32 // bank count, power of two
	m uint   // log2(M)
}

// NewGeometry returns the hit math for an M-bank word-interleaved system.
func NewGeometry(banks uint32) (Geometry, error) {
	if banks == 0 || banks&(banks-1) != 0 {
		return Geometry{}, fmt.Errorf("core: bank count %d is not a positive power of two", banks)
	}
	var lg uint
	for x := banks; x > 1; x >>= 1 {
		lg++
	}
	return Geometry{M: banks, m: lg}, nil
}

// MustGeometry is NewGeometry for known-good constants.
func MustGeometry(banks uint32) Geometry {
	g, err := NewGeometry(banks)
	if err != nil {
		panic(err)
	}
	return g
}

// Log2Banks returns m = log2(M).
func (g Geometry) Log2Banks() uint { return g.m }

// DecodeBank returns the bank holding word address a: the bit select
// a mod M of Section 4.1.1 (with N = 1 for word interleaving).
func (g Geometry) DecodeBank(a uint32) uint32 { return a & (g.M - 1) }

// StrideClass is the decomposition of a stride that the hit theorems
// consume: S mod M = Sigma * 2^S2, with Delta = 2^(m-S2) and
// K1 = Sigma^-1 mod Delta. For strides that are multiples of M (Sm == 0)
// every element lands in bank DecodeBank(B); that degenerate case is
// encoded as S2 = m, Delta = 1, K1 = 0.
type StrideClass struct {
	Sm    uint32 // S mod M
	Sigma uint32 // odd factor of Sm (1 if Sm == 0)
	S2    uint   // s: exponent of two in Sm (m if Sm == 0)
	Delta uint32 // 2^(m-s): NextHit increment (Theorem 4.4)
	K1    uint32 // least index hitting distance 2^s (0 if Sm == 0)
}

// Classify computes the StrideClass of stride for this geometry. This is
// the computation the hardware compiles into its PLA.
func (g Geometry) Classify(stride uint32) StrideClass {
	sm := stride & (g.M - 1)
	if sm == 0 {
		return StrideClass{Sm: 0, Sigma: 1, S2: g.m, Delta: 1, K1: 0}
	}
	sigma, s := DecomposeStride(sm)
	k := g.m - s
	return StrideClass{
		Sm:    sm,
		Sigma: sigma,
		S2:    s,
		Delta: uint32(1) << k,
		K1:    OddInverse(sigma, k),
	}
}

// DecomposeStride writes x = sigma * 2^s with sigma odd. x must be
// positive.
func DecomposeStride(x uint32) (sigma uint32, s uint) {
	if x == 0 {
		panic("core: DecomposeStride of zero")
	}
	for x&1 == 0 {
		x >>= 1
		s++
	}
	return x, s
}

// OddInverse returns the multiplicative inverse of the odd number a
// modulo 2^k (0 <= k <= 32); for k == 0 the result is 0 (the ring is
// trivial). It uses Newton–Hensel lifting: each step doubles the number
// of correct low-order bits.
func OddInverse(a uint32, k uint) uint32 {
	if a&1 == 0 {
		panic("core: OddInverse of even number")
	}
	if k == 0 {
		return 0
	}
	inv := a // correct to 3 bits already for odd a? correct to 1 bit; lift below
	for i := 0; i < 5; i++ {
		inv *= 2 - a*inv
	}
	if k == 32 {
		return inv
	}
	return inv & (uint32(1)<<k - 1)
}

// Hit describes the subvector of V owned by one bank: the bank holds
// elements First, First+Delta, First+2*Delta, ..., Count of them in all.
type Hit struct {
	First uint32 // index of the first element held (NoHit if Count == 0)
	Delta uint32 // index increment between held elements
	Count uint32 // number of elements held
}

// FirstHit returns the index of the first element of v residing in bank
// b, or NoHit. This is Theorem 4.3 evaluated combinationally.
func (g Geometry) FirstHit(v Vector, b uint32) uint32 {
	return g.firstHitClass(v, b, g.Classify(v.Stride))
}

// NextHit returns delta = 2^(m-s) for the given stride (Theorem 4.4).
func (g Geometry) NextHit(stride uint32) uint32 { return g.Classify(stride).Delta }

// SubVector returns the full description of the subvector of v that bank
// b owns, combining FirstHit, NextHit, and the length check.
func (g Geometry) SubVector(v Vector, b uint32) Hit {
	c := g.Classify(v.Stride)
	first := g.firstHitClass(v, b, c)
	if first == NoHit {
		return Hit{First: NoHit, Delta: c.Delta}
	}
	return Hit{
		First: first,
		Delta: c.Delta,
		Count: (v.Length - first + c.Delta - 1) / c.Delta,
	}
}

func (g Geometry) firstHitClass(v Vector, b uint32, c StrideClass) uint32 {
	if v.Length == 0 {
		return NoHit
	}
	b0 := g.DecodeBank(v.Base)
	d := (b - b0) & (g.M - 1)
	if c.Sm == 0 {
		if d != 0 {
			return NoHit
		}
		return 0
	}
	if d&(uint32(1)<<c.S2-1) != 0 {
		return NoHit // Lemma 4.2: only distances that are multiples of 2^s hit
	}
	i := d >> c.S2
	ki := (c.K1 * i) & (c.Delta - 1) // Theorem 4.3
	if ki >= v.Length {
		return NoHit
	}
	return ki
}
