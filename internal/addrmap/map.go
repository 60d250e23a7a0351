// Map: the one GF(2)-linear decoder family behind "line", "xor" and
// "tuned:", and the canonical spec-string machinery that lets any
// decoder round-trip through CLI flags, JSON sweeps, and the crash-safe
// journal's config hash.
package addrmap

import (
	"fmt"
	"strconv"
	"strings"

	"pva/internal/addr"
)

// Map is a decoder whose channel is the log2(C)-bit address field at
// bit at, with the other address bits, in order, forming the
// channel-local address l:
//
//	bank word = l / M,  bank = (l mod M) xor H(bank word),
//
// where bit j of H is the parity of the bank word under Masks[j]. "line"
// puts the channel field above the line offset (at = log2(lineWords))
// and hashes nothing; "xor" and "tuned:" put it at bit 0, so channel =
// a mod C, and hash with XORFoldMasks or the spec's masks. Because H
// depends only on the bank word — never on the bank bits themselves —
// the map is unit triangular over GF(2) and hence a bijection for every
// mask choice, which is what makes the whole space safely searchable
// (internal/autotune). Zero masks at bit 0 compute WordInterleave's
// function.
//
// A Map is immutable once built, so systems, snapshots and the
// autotuner's workers share one freely.
type Map struct {
	name  string // "line", "xor" or "tuned"
	C, M  uint32
	Masks []uint32 // one mask per bank bit; selects bank-word bits
	at    uint     // the channel field is address bits [at, hi)
	hi    uint
	m     uint   // log2(M)
	low   uint32 // the address bits below the channel field
	// H is linear, so it is the XOR of its values on the bank word's
	// four bytes: h holds those 4 x 256 values once any mask is set.
	h *[4][256]uint32
}

// NewTuned returns the tuned map for the given masks. Up to log2(banks)
// masks are accepted — missing ones are zero — and mask bits above the
// bank-word width are cleared, so equal decoders always carry identical
// (canonical) mask slices.
func NewTuned(channels, banks uint32, masks []uint32) (*Map, error) {
	return newMap("tuned", channels, banks, 1, masks)
}

// MustTuned is NewTuned for known-good constants.
func MustTuned(channels, banks uint32, masks []uint32) *Map {
	d, err := NewTuned(channels, banks, masks)
	if err != nil {
		panic(err)
	}
	return d
}

// newMap builds a map with its channel field at bit log2(lineWords),
// canonicalizing the masks as NewTuned documents.
func newMap(name string, channels, banks, lineWords uint32, masks []uint32) (*Map, error) {
	lc, lm, err := shape(channels, banks)
	if err != nil {
		return nil, err
	}
	at, err := log2(lineWords)
	if err != nil {
		return nil, fmt.Errorf("addrmap: line words: %w", err)
	}
	if uint(len(masks)) > lm {
		return nil, fmt.Errorf("addrmap: tuned: %d masks for %d bank bits", len(masks), lm)
	}
	d := &Map{name: name, C: channels, M: banks, Masks: make([]uint32, lm),
		at: at, hi: at + lc, m: lm, low: 1<<at - 1}
	copy(d.Masks, masks)
	var set uint32
	for j := range d.Masks {
		d.Masks[j] &= ^uint32(0) >> (lc + lm) // the bank word's width
		set |= d.Masks[j]
	}
	if set != 0 {
		// A one-bit bank word has parity 1 under exactly the masks that
		// select its bit; every other entry is the XOR of two before it.
		d.h = new([4][256]uint32)
		for k := range d.h {
			for v := 1; v < 256; v++ {
				if bit := v & -v; bit != v {
					d.h[k][v] = d.h[k][v^bit] ^ d.h[k][bit]
					continue
				}
				for j, mk := range d.Masks {
					if mk&(uint32(v)<<(8*k)) != 0 {
						d.h[k][v] |= 1 << j
					}
				}
			}
		}
	}
	return d, nil
}

// Name implements Decoder.
func (d *Map) Name() string { return d.name }

// Channels implements Decoder.
func (d *Map) Channels() uint32 { return d.C }

// Banks implements Decoder.
func (d *Map) Banks() uint32 { return d.M }

// hash returns H(bw).
func (d *Map) hash(bw uint32) uint32 {
	t := d.h
	if t == nil {
		return 0
	}
	return t[0][bw&0xff] ^ t[1][bw>>8&0xff] ^ t[2][bw>>16&0xff] ^ t[3][bw>>24]
}

// Decode implements Decoder.
func (d *Map) Decode(a addr.Word) Coord {
	l := a>>d.hi<<d.at | a&d.low
	bw := l >> d.m
	return Coord{
		Channel:  a >> d.at & (d.C - 1),
		Bank:     l&(d.M-1) ^ d.hash(bw),
		BankWord: bw,
	}
}

// Encode implements Decoder: the hash depends only on the bank word, so
// the inverse re-applies it (XOR is an involution per bit).
func (d *Map) Encode(c Coord) addr.Word {
	l := c.BankWord<<d.m | c.Bank ^ d.hash(c.BankWord)
	return l>>d.at<<d.hi | c.Channel<<d.at | l&d.low
}

// XORFoldMasks returns the masks of the classic bank fold, "xor": mask j
// selects bank-word bits {j, j+m, j+2m, ...}, the repeated fold of every
// m-bit group into the bank bits. The autotuner seeds its search with
// this landmark (and the zero masks, which are WordInterleave).
func XORFoldMasks(channels, banks uint32) []uint32 {
	lc, _ := log2(channels)
	lm, _ := log2(banks)
	masks := make([]uint32, lm)
	for j := range masks {
		for b := uint(j); b+lc+lm < 32; b += lm {
			masks[j] |= 1 << b
		}
	}
	return masks
}

// String returns the canonical spec: "line" or "xor", or "tuned:"
// followed by one lowercase-hex mask per bank bit. Parse inverts it
// exactly.
func (d *Map) String() string {
	if d.name != "tuned" {
		return d.name
	}
	var b strings.Builder
	b.WriteString("tuned:")
	for j, m := range d.Masks {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString("0x")
		b.WriteString(strconv.FormatUint(uint64(m), 16))
	}
	return b.String()
}

// validSpecs names every decoder spec form Parse accepts, for errors.
const validSpecs = "word, line, xor, tuned:<mask,mask,...>"

// Parse returns the decoder a spec string names: "word" (the default
// when the spec is empty), "line", "xor", or "tuned:<mask,...>" with
// one hex or decimal bank-word parity mask per bank bit (trailing zero
// masks may be omitted). Every decoder-selection path — Config.AddrMap,
// both CLIs, the sweep harness, the journal config hash — routes
// through here, so an unknown spec fails the same way everywhere, with
// the valid forms in the error.
func Parse(spec string, channels, banks, lineWords uint32) (Decoder, error) {
	switch spec {
	case "", "word":
		return NewWordInterleave(channels, banks)
	case "line":
		return newMap("line", channels, banks, lineWords, nil)
	case "xor":
		return newMap("xor", channels, banks, 1, XORFoldMasks(channels, banks))
	}
	if rest, ok := strings.CutPrefix(spec, "tuned:"); ok {
		masks, err := parseMasks(rest)
		if err != nil {
			return nil, fmt.Errorf("addrmap: bad tuned spec %q: %w", spec, err)
		}
		return NewTuned(channels, banks, masks)
	}
	return nil, fmt.Errorf("addrmap: unknown decoder %q (valid: %s)", spec, validSpecs)
}

// parseMasks splits a comma-separated mask list ("0x9,0x12,4,0").
func parseMasks(s string) ([]uint32, error) {
	if s == "" {
		return nil, fmt.Errorf("no masks")
	}
	parts := strings.Split(s, ",")
	masks := make([]uint32, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 0, 32)
		if err != nil {
			return nil, fmt.Errorf("mask %d: %v", i, err)
		}
		masks[i] = uint32(v)
	}
	return masks, nil
}

// Spec returns the canonical spec string of a decoder: a Map's String,
// the bare name otherwise. Parse(Spec(d)) reconstructs an identical
// decoder.
func Spec(d Decoder) string {
	if m, ok := d.(*Map); ok {
		return m.String()
	}
	return d.Name()
}

// Canonical parses a spec and returns its canonical string form, so two
// spellings of the same decoder ("", "word"; "tuned:4,0,0,0",
// "tuned:0x4") hash identically in sweep journals.
func Canonical(spec string, channels, banks, lineWords uint32) (string, error) {
	d, err := Parse(spec, channels, banks, lineWords)
	if err != nil {
		return "", err
	}
	return Spec(d), nil
}
