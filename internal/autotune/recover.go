// Reverse engineering: recovering an unknown decoder's XOR component
// functions from observable behavior, Sudoku-style (Wi et al.: real
// DRAM address mappings decompose into per-bit XOR functions, and each
// function can be solved for independently).
//
// The recoverer only needs a same-unit oracle — "do these two addresses
// land in the same (channel, bank)?" — and exploits linearity: for any
// tuned addrmap.Map (channel = a mod C), the bank of address x<<(c+m)
// is a GF(2)-linear function f of x (the plain interleave bits are zero
// there, so only the XOR fold remains). Linear maps are determined by
// their kernel structure: probing basis vectors and testing membership
// in the span of previously seen images reconstructs f's structure, and
// the plain interleave bits pin its labeling — an address whose bank
// word is zero sits in exactly the bank its interleave bits spell (bank
// = d ^ f(0) = d), a labeled reference ruler the probes are compared
// against. Structure plus labels make the recovery exact, not merely
// equivalent up to relabeling.
//
// Two oracles ship: DecoderOracle answers from a decoder directly (the
// round-trip pin for word/xor/tuned), and TimingOracle answers from
// measured cycle counts of an opaque System — the "observed per-address
// timings" mode. Its probe is self-calibrating: an alternating
// two-address indexed read of length L costs ~L column accesses when
// both addresses share a bank (one controller serializes every element,
// and a row conflict only adds to that) but strictly less when two
// controllers split the work; comparing against the single-address
// reference run of the same length classifies the pair with a
// deterministic margin.

package autotune

import (
	"fmt"
	"math/bits"

	"pva/internal/addrmap"
	"pva/internal/core"
	"pva/internal/memsys"
)

// Oracle answers whether two word addresses decode to the same
// (channel, bank) unit.
type Oracle interface {
	SameUnit(a, b uint32) bool
}

// DecoderOracle answers from a known decoder.
type DecoderOracle struct{ D addrmap.Decoder }

// SameUnit implements Oracle.
func (o DecoderOracle) SameUnit(a, b uint32) bool {
	ca, cb := o.D.Decode(a), o.D.Decode(b)
	return ca.Channel == cb.Channel && ca.Bank == cb.Bank
}

// Recover reconstructs the XOR component masks of an unknown decoder of
// the tuned form (word-interleaved channels, bank = interleave bits
// XOR a linear hash of the bank word) by probing the oracle with
// addresses whose interleave bits are zero. probeBits bounds the
// bank-word bits probed (0: all of them); bits beyond it are reported
// as unhashed. The result equals the original decoder's masks exactly
// on the probed window.
func Recover(o Oracle, channels, banks uint32, probeBits uint) (*addrmap.Map, error) {
	if channels == 0 || channels&(channels-1) != 0 || banks == 0 || banks&(banks-1) != 0 {
		return nil, fmt.Errorf("autotune: recover: channels %d / banks %d not powers of two", channels, banks)
	}
	lc := uint(bits.TrailingZeros32(channels))
	lm := uint(bits.TrailingZeros32(banks))
	shift := lc + lm
	if probeBits == 0 || probeBits > 32-shift {
		probeBits = 32 - shift
	}
	A := func(x uint32) uint32 { return x << shift }

	// Gaussian elimination through the membership oracle. gens holds the
	// probe bits whose images form the running basis, each carrying its
	// true image read off the interleave ruler. For each new probe e_i,
	// f(e_i) lies in span(basis) iff some subset S of the basis satisfies
	// f(e_i ^ xor(S)) == 0, i.e. the combined address shares a unit with
	// address zero — distinct probe bits never carry, so the GF(2) sum is
	// a plain OR of bits.
	type gen struct {
		bit   uint
		label uint32
	}
	var gens []gen
	images := make([]uint32, probeBits)
	for i := uint(0); i < probeBits; i++ {
		found := false
		for sub := 0; sub < 1<<len(gens); sub++ {
			x := uint32(1) << i
			var lbl uint32
			for k := range gens {
				if sub>>k&1 == 1 {
					x |= 1 << gens[k].bit
					lbl ^= gens[k].label
				}
			}
			if o.SameUnit(A(x), A(0)) {
				images[i] = lbl
				found = true
				break
			}
		}
		if !found {
			if uint(len(gens)) == lm {
				return nil, fmt.Errorf("autotune: recover: oracle shows more than %d independent bank dimensions", lm)
			}
			// New basis vector: pin its true image against the interleave
			// ruler. Address d<<lc has bank word zero, so it sits in bank
			// d; the unique match identifies f(e_i). (Zero never matches —
			// f(e_i) == 0 would have been caught by the span test above.)
			lbl, pinned := uint32(0), false
			for d := uint32(0); d < banks; d++ {
				if o.SameUnit(A(1<<i), d<<lc) {
					lbl, pinned = d, true
					break
				}
			}
			if !pinned {
				return nil, fmt.Errorf("autotune: recover: probe bit %d matches no bank on the interleave ruler", i)
			}
			gens = append(gens, gen{bit: i, label: lbl})
			images[i] = lbl
		}
	}

	masks := make([]uint32, lm)
	for j := range masks {
		var m uint32
		for i, img := range images {
			if img>>uint(j)&1 == 1 {
				m |= 1 << uint(i)
			}
		}
		masks[j] = m
	}
	return addrmap.NewTuned(channels, banks, masks)
}

// TimingOracle classifies address pairs by measuring an opaque System:
// the per-address-timing mode of the recoverer. Every probe runs on a
// fresh system from NewSystem so no row state leaks between
// measurements; results are cached. Measurement failures surface in
// Err — SameUnit then answers false, and the caller must check Err
// after Recover.
type TimingOracle struct {
	// NewSystem constructs a fresh instance of the system under
	// investigation.
	NewSystem func() (memsys.System, error)
	// Length is the amplification factor: elements per probe read
	// (0: 32). Longer probes widen the same-unit margin.
	Length uint32
	// Err records the first measurement failure.
	Err error

	rep   map[uint32]uint64
	pairs map[[2]uint32]bool
}

func (o *TimingOracle) length() uint32 {
	if o.Length == 0 {
		return 32
	}
	return o.Length
}

// measure runs one indexed read over the address list and returns its
// cycle count.
func (o *TimingOracle) measure(idx []uint32) (uint64, error) {
	sys, err := o.NewSystem()
	if err != nil {
		return 0, err
	}
	res, err := sys.Run(memsys.Trace{Cmds: []memsys.VectorCmd{{
		Op:  memsys.Read,
		V:   core.Vector{Stride: 0, Length: uint32(len(idx))},
		Idx: idx,
	}}})
	if err != nil {
		return 0, err
	}
	return res.Cycles, nil
}

// repCycles measures (and caches) the single-address reference: the
// cost of length() reads all landing on one unit.
func (o *TimingOracle) repCycles(a uint32) (uint64, error) {
	if c, ok := o.rep[a]; ok {
		return c, nil
	}
	idx := make([]uint32, o.length())
	for i := range idx {
		idx[i] = a
	}
	c, err := o.measure(idx)
	if err != nil {
		return 0, err
	}
	if o.rep == nil {
		o.rep = map[uint32]uint64{}
	}
	o.rep[a] = c
	return c, nil
}

// SameUnit implements Oracle by timing. An alternating a/b read that
// costs at least the single-address reference (within an eighth) must
// have serialized on one unit; two units strictly undercut it.
func (o *TimingOracle) SameUnit(a, b uint32) bool {
	if o.Err != nil {
		return false
	}
	if a == b {
		return true
	}
	key := [2]uint32{a, b}
	if b < a {
		key = [2]uint32{b, a}
	}
	if same, ok := o.pairs[key]; ok {
		return same
	}
	ra, err := o.repCycles(a)
	if err != nil {
		o.Err = err
		return false
	}
	rb, err := o.repCycles(b)
	if err != nil {
		o.Err = err
		return false
	}
	idx := make([]uint32, o.length())
	for i := range idx {
		if i%2 == 0 {
			idx[i] = a
		} else {
			idx[i] = b
		}
	}
	pair, err := o.measure(idx)
	if err != nil {
		o.Err = err
		return false
	}
	ref := ra
	if rb < ref {
		ref = rb
	}
	same := pair >= ref-ref/8
	if o.pairs == nil {
		o.pairs = map[[2]uint32]bool{}
	}
	o.pairs[key] = same
	return same
}
