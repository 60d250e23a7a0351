// Extension-facing API: the bit-reversal capability the paper's
// conclusion sketches (vector-indirect scatter/gather is the indexed
// VectorCmd kind) and the hardware complexity accounting.

package pva

import (
	"pva/internal/bitrev"
	"pva/internal/complexity"
)

// BitReverse reverses the low `bits` bits of x — the FFT reordering
// pattern of Section 7.
func BitReverse(x uint32, bits uint) uint32 { return bitrev.Reverse(x, bits) }

// BitRevAddresses returns the bit-reversed application vector: element
// i at base + BitReverse(i, bits)*scale words.
func BitRevAddresses(base uint32, bits uint, scale uint32) []uint32 {
	return bitrev.Addresses(base, bits, scale)
}

// BitRevAnalysis quantifies the bank parallelism available to a
// bit-reversed access stream under a bank-decode function.
type BitRevAnalysis = bitrev.Analysis

// AnalyzeBitRev reports distinct banks touched per line-sized chunk.
func AnalyzeBitRev(addrs []uint32, chunkLen int, bank func(uint32) uint32) BitRevAnalysis {
	return bitrev.Analyze(addrs, chunkLen, bank)
}

// ComplexityParams are the bank-controller design parameters whose
// structural cost Complexity accounts for (the Table 1 substitute).
type ComplexityParams = complexity.Params

// ComplexityEstimate is the structural account.
type ComplexityEstimate = complexity.Estimate

// Complexity computes the structural hardware account of one bank
// controller.
func Complexity(p ComplexityParams) (ComplexityEstimate, error) { return complexity.New(p) }

// PaperComplexityParams is the prototype configuration.
func PaperComplexityParams() ComplexityParams { return complexity.PaperParams() }
