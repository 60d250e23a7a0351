// Package addrmap is the pluggable address-decode layer of the memory
// system: it decomposes a 32-bit word address into independent component
// functions — memory channel, external bank within the channel, and the
// word index within that bank's device (which addr.SDRAMGeom further
// splits into internal bank / row / column). Real controllers treat
// these component functions as a design axis of their own; making them
// first-class lets the simulator scale the PVA design past the paper's
// single-channel, word-interleaved prototype.
//
// Two decoder types are provided:
//
//   - WordInterleave ("word"): consecutive words round-robin first
//     across channels, then across banks. With one channel this is
//     exactly the prototype's organization (Section 5.1), and the
//     combined (channel, bank) selection is word interleaving across
//     Channels*Banks units, so the paper's closed-form FirstHit/NextHit
//     mathematics applies directly (HitGeometry).
//   - Map: every other decoder, one GF(2)-linear family. A channel field
//     at a fixed bit position, and a bank hashed by XOR masks over the
//     bank word — the per-bit XOR component functions real DRAM maps
//     decompose into. "line" selects channels at cache-line granularity
//     and hashes nothing, "xor" is the classic bank fold, and
//     "tuned:<mask,...>" names any mask set, searched per workload by
//     internal/autotune and round-tripped through its canonical spec
//     string (see Parse and Spec).
//
// All component functions are bijections on the word address space:
// Encode is the exact inverse of Decode, which the device models rely on
// to address the shared backing store.
package addrmap

import (
	"fmt"

	"pva/internal/addr"
	"pva/internal/core"
)

// Coord locates a word address in the channel/bank hierarchy. Row and
// column within the device follow by applying addr.SDRAMGeom.Decompose
// to BankWord.
type Coord struct {
	Channel  uint32 // memory channel
	Bank     uint32 // external bank within the channel
	BankWord uint32 // word index within the bank's device
}

// Decoder decomposes word addresses into (channel, bank, bank word)
// components and back.
type Decoder interface {
	// Name identifies the decoder in configs and reports.
	Name() string
	// Channels returns the channel count C.
	Channels() uint32
	// Banks returns the external bank count M per channel.
	Banks() uint32
	// Decode maps a word address to its coordinates.
	Decode(a addr.Word) Coord
	// Encode is the inverse of Decode.
	Encode(c Coord) addr.Word
}

// HitMath is implemented by decoders whose combined (channel, bank)
// selection is plain word interleaving across Channels()*Banks() units.
// For those, the paper's closed-form FirstHit/NextHit theorems apply
// directly: a bank controller for (channel c, bank b) computes its
// subvector with HitGeometry() and unit index HitUnit(c, b).
type HitMath interface {
	HitGeometry() core.Geometry
	HitUnit(channel, bank uint32) uint32
}

// WordInterleave round-robins consecutive words across channels, then
// across banks within the channel: channel = a mod C, bank = (a/C) mod M,
// bank word = a / (C*M). With C = 1 it is the paper's prototype mapping.
type WordInterleave struct {
	C, M uint32
	c, m uint // log2
}

// NewWordInterleave returns the word-interleaved decoder.
func NewWordInterleave(channels, banks uint32) (*WordInterleave, error) {
	lc, lm, err := shape(channels, banks)
	if err != nil {
		return nil, err
	}
	return &WordInterleave{C: channels, M: banks, c: lc, m: lm}, nil
}

// MustWordInterleave is NewWordInterleave for known-good constants.
func MustWordInterleave(channels, banks uint32) *WordInterleave {
	d, err := NewWordInterleave(channels, banks)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Decoder.
func (d *WordInterleave) Name() string { return "word" }

// Channels implements Decoder.
func (d *WordInterleave) Channels() uint32 { return d.C }

// Banks implements Decoder.
func (d *WordInterleave) Banks() uint32 { return d.M }

// Decode implements Decoder.
func (d *WordInterleave) Decode(a addr.Word) Coord {
	return Coord{
		Channel:  a & (d.C - 1),
		Bank:     (a >> d.c) & (d.M - 1),
		BankWord: a >> (d.c + d.m),
	}
}

// Encode implements Decoder.
func (d *WordInterleave) Encode(c Coord) addr.Word {
	return c.BankWord<<(d.c+d.m) | c.Bank<<d.c | c.Channel
}

// HitGeometry implements HitMath: the combined selection is word
// interleaving across C*M units.
func (d *WordInterleave) HitGeometry() core.Geometry {
	return core.MustGeometry(d.C * d.M)
}

// HitUnit implements HitMath: the word-interleave unit index of
// (channel, bank) in HitGeometry's C*M-unit space, bank<<log2(C) |
// channel.
func (d *WordInterleave) HitUnit(channel, bank uint32) uint32 {
	return bank<<d.c | channel
}

// SplitVector returns the per-channel subvectors of v under any decoder:
// the closed form when the channel is the address mod C (modC),
// otherwise by enumerating v's elements. Channels that own no element
// report Count 0. Closed-form hits are true arithmetic subvectors
// (element First + j*Delta for j < Count); for enumerated decoders a
// channel's elements need not be evenly spaced, so only First and Count
// are meaningful and Delta is a nominal 1 — the channel dispatcher hands
// the bank controllers under such decoders explicit element lists
// instead.
func SplitVector(d Decoder, v core.Vector) []core.Hit {
	return AppendSplit(make([]core.Hit, 0, d.Channels()), d, v)
}

// AppendSplit is SplitVector appending into caller-owned storage: hits
// for all of d's channels are appended to dst, which is grown as needed
// and returned. Passing scratch[:0] from a persistent buffer makes the
// closed-form decoders allocation-free per broadcast.
func AppendSplit(dst []core.Hit, d Decoder, v core.Vector) []core.Hit {
	if modC(d) {
		g := core.MustGeometry(d.Channels())
		for ch := range d.Channels() {
			dst = append(dst, g.SubVector(v, ch))
		}
		return dst
	}
	base := len(dst)
	for ch := uint32(0); ch < d.Channels(); ch++ {
		dst = append(dst, core.Hit{First: core.NoHit, Delta: 1})
	}
	out := dst[base:]
	for i := uint32(0); i < v.Length; i++ {
		ch := d.Decode(v.Addr(i)).Channel
		if out[ch].Count == 0 {
			out[ch].First = i
		}
		out[ch].Count++
	}
	return dst
}

// modC reports whether d's channel is the address mod C, so that each
// channel's share of a base-stride vector is an arithmetic progression —
// Theorems 4.3/4.4 applied at channel granularity.
func modC(d Decoder) bool {
	switch d := d.(type) {
	case *WordInterleave:
		return true
	case *Map:
		return d.at == 0
	}
	return false
}

// SameFunction reports whether two decoders compute the same address
// function: the same channel and bank counts, and the same Coord for
// every word address. Each decoder in this package is GF(2)-linear —
// every Coord bit is the XOR of some address bits, so Decode(x^y) is
// Decode(x)^Decode(y) field by field — and two such maps are equal
// exactly when they agree on address 0 and on the 32 one-bit addresses.
// A decoder of any other type carries no such guarantee and is never
// reported equal to anything.
func SameFunction(a, b Decoder) bool {
	if !linear(a) || !linear(b) || a.Channels() != b.Channels() || a.Banks() != b.Banks() {
		return false
	}
	if a.Decode(0) != b.Decode(0) {
		return false
	}
	for i := range 32 {
		if a.Decode(1<<i) != b.Decode(1<<i) {
			return false
		}
	}
	return true
}

// linear reports whether d is one of this package's decoders, all
// GF(2)-linear (TestDecodersLinear).
func linear(d Decoder) bool {
	switch d.(type) {
	case *WordInterleave, *Map:
		return true
	}
	return false
}

// BankView is one bank controller's window onto a decoder: the
// device-word mapping for a fixed (channel, bank). Bank controllers
// under a decoder with no closed-form hit math use it to address the
// backing store.
type BankView struct {
	D       Decoder
	Channel uint32
	Bank    uint32
}

// BankWord returns the device word index of a (which must be owned).
func (v BankView) BankWord(a uint32) uint32 { return v.D.Decode(a).BankWord }

// Compose returns the word address stored at the device word index.
func (v BankView) Compose(bankWord uint32) uint32 {
	return v.D.Encode(Coord{Channel: v.Channel, Bank: v.Bank, BankWord: bankWord})
}

// shape validates a channel and bank count and returns their log2.
func shape(channels, banks uint32) (lc, lm uint, err error) {
	if lc, err = log2(channels); err != nil {
		return 0, 0, fmt.Errorf("addrmap: channels: %w", err)
	}
	if lm, err = log2(banks); err != nil {
		return 0, 0, fmt.Errorf("addrmap: banks: %w", err)
	}
	return lc, lm, nil
}

// log2 returns log2(x) for a positive power of two, or an error.
func log2(x uint32) (uint, error) {
	if x == 0 || x&(x-1) != 0 {
		return 0, fmt.Errorf("%d is not a positive power of two", x)
	}
	var lg uint
	for x > 1 {
		x >>= 1
		lg++
	}
	return lg, nil
}
