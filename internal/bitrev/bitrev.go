// Package bitrev implements the bit-reversed application vectors of the
// paper's conclusion (Section 7): the FFT reordering pattern where
// element i of the vector lives at base + reverse(i, n). The memory
// controller can generate these addresses itself — "reversing some
// number of low order bits of the address and using the new address to
// access memory, incrementing the original address and repeating" — and
// the paper observes that the resulting scatter/gather is inherently
// sequential for word-interleaved memory but parallelizable for block
// interleaving. Analyze makes that observation quantitative. The
// reorder itself runs on the simulator: examples/fft_bitrev sends the
// Addresses list as indexed commands and checks every gathered element.
package bitrev

import "fmt"

// Reverse returns x with its low `bits` bits reversed (x < 2^bits).
func Reverse(x uint32, bits uint) uint32 {
	var r uint32
	for i := uint(0); i < bits; i++ {
		r = r<<1 | x&1
		x >>= 1
	}
	return r
}

// Addresses returns the bit-reversed application vector of 2^bits
// elements: element i at base + Reverse(i, bits)*scale, where scale is
// the element size in words (2 for the complex pairs of an FFT).
func Addresses(base uint32, bits uint, scale uint32) []uint32 {
	if bits > 24 {
		panic(fmt.Sprintf("bitrev: %d bits is unreasonably large", bits))
	}
	out := make([]uint32, uint32(1)<<bits)
	for i := range out {
		out[i] = base + Reverse(uint32(i), bits)*scale
	}
	return out
}

// Analysis quantifies the available bank parallelism of an address
// sequence processed one cache line (chunk) at a time.
type Analysis struct {
	Chunks            int     // line-sized chunks analyzed
	MeanBanksPerChunk float64 // average distinct banks touched per chunk
	MinBanksPerChunk  int
	MaxBanksPerChunk  int
}

// Analyze splits the sequence into chunkLen-element chunks and reports
// how many distinct banks each touches under the bank-decode function.
// Word interleaving yields few banks per chunk (sequential service);
// block interleaving spreads chunks across banks (parallel service).
func Analyze(addrs []uint32, chunkLen int, bank func(uint32) uint32) Analysis {
	if chunkLen <= 0 {
		panic("bitrev: chunk length must be positive")
	}
	a := Analysis{MinBanksPerChunk: 1 << 30}
	total := 0
	for s := 0; s < len(addrs); s += chunkLen {
		e := s + chunkLen
		if e > len(addrs) {
			e = len(addrs)
		}
		banks := map[uint32]struct{}{}
		for _, ad := range addrs[s:e] {
			banks[bank(ad)] = struct{}{}
		}
		n := len(banks)
		total += n
		if n < a.MinBanksPerChunk {
			a.MinBanksPerChunk = n
		}
		if n > a.MaxBanksPerChunk {
			a.MaxBanksPerChunk = n
		}
		a.Chunks++
	}
	if a.Chunks > 0 {
		a.MeanBanksPerChunk = float64(total) / float64(a.Chunks)
	} else {
		a.MinBanksPerChunk = 0
	}
	return a
}
