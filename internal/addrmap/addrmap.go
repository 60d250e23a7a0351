// Package addrmap is the pluggable address-decode layer of the memory
// system: it decomposes a 32-bit word address into independent component
// functions — memory channel, external bank within the channel, and the
// word index within that bank's device (which addr.SDRAMGeom further
// splits into internal bank / row / column). Real controllers treat
// these component functions as a design axis of their own; making them
// first-class lets the simulator scale the PVA design past the paper's
// single-channel, word-interleaved prototype.
//
// Four decoders are provided:
//
//   - WordInterleave: consecutive words round-robin first across
//     channels, then across banks. With one channel this is exactly the
//     prototype's organization (Section 5.1), and the combined
//     (channel, bank) selection is word interleaving across
//     Channels*Banks units, so the paper's closed-form FirstHit/NextHit
//     mathematics applies directly (HitGeometry).
//   - LineInterleave: channels are selected at cache-line granularity
//     (whole lines round-robin across channels), banks word-interleaved
//     within each channel. Whole-line traffic parallelizes across
//     channels; element ownership within a vector is no longer a single
//     arithmetic progression per bank.
//   - XORBank: word-interleaved channels, but the bank within a channel
//     is permuted by XOR-folding the device word index into the bank
//     bits (the classic conflict-breaking bank hash). Strides that are
//     multiples of the bank count no longer serialize on one bank.
//   - Tuned: the generalization of XORBank with one explicit parity
//     mask per bank bit — the full XOR-hash design space, searched per
//     workload by internal/autotune and round-tripped through the
//     canonical "tuned:<mask,...>" spec string (see Parse and Spec).
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
// subvector with HitGeometry() and unit index b<<log2(C) | c.
type HitMath interface {
	HitGeometry() core.Geometry
}

// ChannelSplitter is implemented by decoders whose per-channel element
// sets of a base-stride vector are arithmetic progressions — Theorems
// 4.3/4.4 applied at channel granularity. The channel dispatcher uses it
// to size each channel's share of a broadcast without enumeration.
type ChannelSplitter interface {
	// SplitVector returns, per channel, the subvector of v the channel
	// owns (First/Delta/Count over v's element indices).
	SplitVector(v core.Vector) []core.Hit
}

// ChannelAppender is the allocation-free form of ChannelSplitter: the
// per-channel hits are appended to dst (reusing its capacity) instead
// of materializing a fresh slice per broadcast. Hot paths hold a scratch
// slice and call AppendSplit(scratch[:0], v) each command.
type ChannelAppender interface {
	AppendSplit(dst []core.Hit, v core.Vector) []core.Hit
}

// New returns the decoder a spec names: "word" (the default when the
// spec is empty), "line", "xor", or a "tuned:<mask,...>" XOR-hash spec.
// channels and banks must be powers of two; lineWords is only consulted
// by "line". New is Parse under its historical name.
func New(name string, channels, banks, lineWords uint32) (Decoder, error) {
	return Parse(name, channels, banks, lineWords)
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
	lc, err := log2(channels)
	if err != nil {
		return nil, fmt.Errorf("addrmap: channels: %w", err)
	}
	lm, err := log2(banks)
	if err != nil {
		return nil, fmt.Errorf("addrmap: banks: %w", err)
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

// HitUnit returns the word-interleave unit index of (channel, bank) in
// HitGeometry's C*M-unit space: bank<<log2(C) | channel.
func (d *WordInterleave) HitUnit(channel, bank uint32) uint32 {
	return bank<<d.c | channel
}

// SplitVector implements ChannelSplitter via the channel-granularity
// closed form (channel = a mod C).
func (d *WordInterleave) SplitVector(v core.Vector) []core.Hit {
	return splitMod(d.C, v)
}

// AppendSplit implements ChannelAppender with the same closed form.
func (d *WordInterleave) AppendSplit(dst []core.Hit, v core.Vector) []core.Hit {
	return appendMod(dst, d.C, v)
}

// LineInterleave selects the channel at cache-line granularity —
// channel = (a / N) mod C for N-word lines — and word-interleaves the M
// banks within each channel over the channel-local address space.
type LineInterleave struct {
	C, M, N uint32
	c, m, n uint
}

// NewLineInterleave returns the line-granularity channel decoder.
func NewLineInterleave(channels, banks, lineWords uint32) (*LineInterleave, error) {
	lc, err := log2(channels)
	if err != nil {
		return nil, fmt.Errorf("addrmap: channels: %w", err)
	}
	lm, err := log2(banks)
	if err != nil {
		return nil, fmt.Errorf("addrmap: banks: %w", err)
	}
	ln, err := log2(lineWords)
	if err != nil {
		return nil, fmt.Errorf("addrmap: line words: %w", err)
	}
	return &LineInterleave{C: channels, M: banks, N: lineWords, c: lc, m: lm, n: ln}, nil
}

// MustLineInterleave is NewLineInterleave for known-good constants.
func MustLineInterleave(channels, banks, lineWords uint32) *LineInterleave {
	d, err := NewLineInterleave(channels, banks, lineWords)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Decoder.
func (d *LineInterleave) Name() string { return "line" }

// Channels implements Decoder.
func (d *LineInterleave) Channels() uint32 { return d.C }

// Banks implements Decoder.
func (d *LineInterleave) Banks() uint32 { return d.M }

// local drops the channel-select bits: the word's index within its
// channel's address space.
func (d *LineInterleave) local(a addr.Word) uint32 {
	return (a>>(d.n+d.c))<<d.n | a&(d.N-1)
}

// Decode implements Decoder.
func (d *LineInterleave) Decode(a addr.Word) Coord {
	l := d.local(a)
	return Coord{
		Channel:  (a >> d.n) & (d.C - 1),
		Bank:     l & (d.M - 1),
		BankWord: l >> d.m,
	}
}

// Encode implements Decoder.
func (d *LineInterleave) Encode(c Coord) addr.Word {
	l := c.BankWord<<d.m | c.Bank
	return (l>>d.n)<<(d.n+d.c) | c.Channel<<d.n | l&(d.N-1)
}

// XORBank keeps word-interleaved channels but permutes the bank within
// each channel by XOR-folding the device word index into the bank bits:
// bank = ((a/C) mod M) xor fold(a / (C*M)). Row-crossing strides that
// would pile onto one bank under plain interleaving spread out instead.
type XORBank struct {
	C, M uint32
	c, m uint
}

// NewXORBank returns the XOR-permutation bank-hash decoder.
func NewXORBank(channels, banks uint32) (*XORBank, error) {
	lc, err := log2(channels)
	if err != nil {
		return nil, fmt.Errorf("addrmap: channels: %w", err)
	}
	lm, err := log2(banks)
	if err != nil {
		return nil, fmt.Errorf("addrmap: banks: %w", err)
	}
	return &XORBank{C: channels, M: banks, c: lc, m: lm}, nil
}

// MustXORBank is NewXORBank for known-good constants.
func MustXORBank(channels, banks uint32) *XORBank {
	d, err := NewXORBank(channels, banks)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Decoder.
func (d *XORBank) Name() string { return "xor" }

// Channels implements Decoder.
func (d *XORBank) Channels() uint32 { return d.C }

// Banks implements Decoder.
func (d *XORBank) Banks() uint32 { return d.M }

// fold XORs the bank word down to log2(M) bits.
func (d *XORBank) fold(bw uint32) uint32 {
	if d.M == 1 {
		return 0
	}
	var r uint32
	for x := bw; x != 0; x >>= d.m {
		r ^= x & (d.M - 1)
	}
	return r
}

// Decode implements Decoder.
func (d *XORBank) Decode(a addr.Word) Coord {
	rest := a >> d.c
	bw := rest >> d.m
	return Coord{
		Channel:  a & (d.C - 1),
		Bank:     rest&(d.M-1) ^ d.fold(bw),
		BankWord: bw,
	}
}

// Encode implements Decoder: the XOR fold is an involution, so the
// inverse re-applies it.
func (d *XORBank) Encode(c Coord) addr.Word {
	return (c.BankWord<<d.m|c.Bank^d.fold(c.BankWord))<<d.c | c.Channel
}

// SplitVector implements ChannelSplitter: the channel function is plain
// word interleaving (a mod C), untouched by the bank hash.
func (d *XORBank) SplitVector(v core.Vector) []core.Hit {
	return splitMod(d.C, v)
}

// AppendSplit implements ChannelAppender with the same closed form.
func (d *XORBank) AppendSplit(dst []core.Hit, v core.Vector) []core.Hit {
	return appendMod(dst, d.C, v)
}

// splitMod computes the per-channel subvectors of v under channel =
// a mod C using the paper's closed forms at channel granularity.
func splitMod(channels uint32, v core.Vector) []core.Hit {
	return appendMod(make([]core.Hit, 0, channels), channels, v)
}

// appendMod is splitMod appending into caller-owned storage.
func appendMod(dst []core.Hit, channels uint32, v core.Vector) []core.Hit {
	g := core.MustGeometry(channels)
	for ch := uint32(0); ch < channels; ch++ {
		dst = append(dst, g.SubVector(v, ch))
	}
	return dst
}

// SplitVector returns the per-channel subvectors of v under any decoder:
// the closed form when the decoder is a ChannelSplitter, otherwise by
// enumerating v's elements. Channels that own no element report Count 0.
// A ChannelSplitter's hits are true arithmetic subvectors (element
// First + j*Delta for j < Count); for enumerated decoders a channel's
// elements need not be evenly spaced, so only First and Count are
// meaningful and Delta is a nominal 1 — the channel dispatcher hands the
// bank controllers under such decoders explicit element lists instead.
func SplitVector(d Decoder, v core.Vector) []core.Hit {
	return AppendSplit(nil, d, v)
}

// AppendSplit is SplitVector appending into caller-owned storage: hits
// for all of d's channels are appended to dst, which is grown as needed
// and returned. Passing scratch[:0] from a persistent buffer makes the
// closed-form decoders allocation-free per broadcast.
func AppendSplit(dst []core.Hit, d Decoder, v core.Vector) []core.Hit {
	if a, ok := d.(ChannelAppender); ok {
		return a.AppendSplit(dst, v)
	}
	if s, ok := d.(ChannelSplitter); ok {
		return append(dst, s.SplitVector(v)...)
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
	case *WordInterleave, *LineInterleave, *XORBank, *Tuned:
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
