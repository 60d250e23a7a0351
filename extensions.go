// Extension-facing API: the bit-reversal capability the paper's
// conclusion sketches (vector-indirect scatter/gather is the indexed
// VectorCmd kind), the Impulse shadow space, the SplitVector paging
// front end and the hardware complexity accounting.

package pva

import (
	"pva/internal/bitrev"
	"pva/internal/complexity"
	"pva/internal/core"
	"pva/internal/shadow"
	"pva/internal/vcmd"
)

// ShadowSpace is the Impulse-style remapping table of Section 3.2: a
// dense shadow region whose cache-line fills the controller turns into
// base-stride gathers of real memory.
type ShadowSpace = shadow.Space

// ShadowMapping is one shadow region configuration.
type ShadowMapping = shadow.Mapping

// NewShadowSpace validates and indexes shadow mappings.
func NewShadowSpace(maps []ShadowMapping) (*ShadowSpace, error) { return shadow.New(maps) }

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

// TLB is the memory controller's superpage table (Section 4.3.2).
type TLB = vcmd.TLB

// TLBMapping is one superpage mapping.
type TLBMapping = vcmd.Mapping

// NewTLB validates and indexes superpage mappings.
func NewTLB(maps []TLBMapping) (*TLB, error) { return vcmd.NewTLB(maps) }

// IdentityTLB identity-maps [0, words) at the given superpage size.
func IdentityTLB(words, pageWords uint32) *TLB { return vcmd.Identity(words, pageWords) }

// SplitVector breaks a virtual-space vector into physical per-superpage
// vector commands using the paper's division-free lower-bound split.
func SplitVector(t *TLB, v Vector) ([]Vector, error) {
	subs, err := vcmd.SplitVector(t, v)
	if err != nil {
		return nil, err
	}
	out := make([]Vector, len(subs))
	for i, s := range subs {
		out[i] = core.Vector(s)
	}
	return out, nil
}

// TranslateIndexed translates a virtual-space indexed access — a base
// plus explicit element offsets — through the superpage TLB into
// physical word addresses, one Lookup per element (the per-element
// index-resolution traffic the strided SplitVector path avoids; it
// shows up in the TLB's Lookups counter). The result is usable directly
// as a VectorCmd index list with Base 0.
func TranslateIndexed(t *TLB, base uint32, idx []uint32) ([]uint32, error) {
	return vcmd.TranslateIndexed(t, base, idx)
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
