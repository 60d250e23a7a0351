package addrmap

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"pva/internal/core"
)

// decoders returns word, line and xor at the given shape.
func decoders(t *testing.T, channels, banks uint32) []Decoder {
	t.Helper()
	var ds []Decoder
	for _, spec := range []string{"word", "line", "xor"} {
		d, err := Parse(spec, channels, banks, 32)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	return ds
}

// testAddrs is a mix of small, aligned, odd, and high addresses.
func testAddrs() []uint32 {
	as := []uint32{0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 63, 64, 511, 512, 513,
		8191, 8192, 1<<20 - 1, 1 << 20, 1<<24 + 12345, 1<<31 + 7, ^uint32(0)}
	for a := uint32(1000); a < 1000+256; a++ {
		as = append(as, a)
	}
	return as
}

// TestRoundTrip: Encode(Decode(a)) == a for every decoder and shape —
// decode must lose no address bits.
func TestRoundTrip(t *testing.T) {
	for _, shape := range [][2]uint32{{1, 16}, {2, 16}, {4, 16}, {4, 1}, {1, 1}, {8, 4}} {
		for _, d := range decoders(t, shape[0], shape[1]) {
			for _, a := range testAddrs() {
				c := d.Decode(a)
				if got := d.Encode(c); got != a {
					t.Fatalf("%s C=%d M=%d: Encode(Decode(%#x)) = %#x (coord %+v)",
						d.Name(), shape[0], shape[1], a, got, c)
				}
				if c.Channel >= d.Channels() || c.Bank >= d.Banks() {
					t.Fatalf("%s C=%d M=%d: Decode(%#x) = %+v out of range",
						d.Name(), shape[0], shape[1], a, c)
				}
			}
		}
	}
}

// TestOwnershipPartition: every address belongs to exactly one
// (channel, bank). Decode names the owner, and of all the banks' device
// views only the owner's stores the address at its bank word, so the
// per-bank element lists the channel dispatcher builds from Decode
// partition a command's elements.
func TestOwnershipPartition(t *testing.T) {
	for _, d := range decoders(t, 4, 8) {
		for _, a := range testAddrs() {
			c := d.Decode(a)
			owners := 0
			for ch := uint32(0); ch < d.Channels(); ch++ {
				for b := uint32(0); b < d.Banks(); b++ {
					if (BankView{D: d, Channel: ch, Bank: b}).Compose(c.BankWord) != a {
						continue
					}
					owners++
					if ch != c.Channel || b != c.Bank {
						t.Fatalf("%s: address %#x decodes to (%d, %d) but is stored by (%d, %d)",
							d.Name(), a, c.Channel, c.Bank, ch, b)
					}
				}
			}
			if owners != 1 {
				t.Fatalf("%s: address %#x has %d owners", d.Name(), a, owners)
			}
		}
	}
}

// TestBankViewCompose: the view's dense bank-word index must invert back
// to the owning address, since the SDRAM device stores by bank word.
func TestBankViewCompose(t *testing.T) {
	for _, d := range decoders(t, 2, 4) {
		for _, a := range testAddrs() {
			c := d.Decode(a)
			v := BankView{D: d, Channel: c.Channel, Bank: c.Bank}
			if got := v.Compose(v.BankWord(a)); got != a {
				t.Fatalf("%s: Compose(BankWord(%#x)) = %#x", d.Name(), a, got)
			}
		}
	}
}

// TestWordInterleaveHitMath: the closed-form hit geometry must agree
// with Decode — global unit b*C+ch owns exactly the addresses decoding
// to (ch, b).
func TestWordInterleaveHitMath(t *testing.T) {
	d := MustWordInterleave(4, 16)
	g := d.HitGeometry()
	if g.Log2Banks() != 6 {
		t.Fatalf("HitGeometry has 2^%d units, want 64", g.Log2Banks())
	}
	for _, a := range testAddrs() {
		c := d.Decode(a)
		if unit := d.HitUnit(c.Channel, c.Bank); unit != a%64 {
			t.Fatalf("HitUnit(%d, %d) = %d for address %#x interleaving to unit %d",
				c.Channel, c.Bank, unit, a, a%64)
		}
	}
}

// TestSplitVectorAgreement: the channel split must agree with brute-force
// enumeration through Decode — element for element where the channel is
// the address mod C and the split is closed-form (word, xor), and in
// First and Count where it is enumerated (line).
func TestSplitVectorAgreement(t *testing.T) {
	vectors := []core.Vector{
		{Base: 0, Stride: 1, Length: 32},
		{Base: 7, Stride: 2, Length: 32},
		{Base: 64, Stride: 4, Length: 17},
		{Base: 3, Stride: 19, Length: 32},
		{Base: 1 << 20, Stride: 0, Length: 9},
		{Base: 100, Stride: 513, Length: 25},
		{Base: 5, Stride: 32, Length: 32},
	}
	for _, shape := range [][2]uint32{{1, 16}, {2, 16}, {4, 8}, {8, 2}} {
		for _, d := range decoders(t, shape[0], shape[1]) {
			for _, v := range vectors {
				got := SplitVector(d, v)
				if uint32(len(got)) != d.Channels() {
					t.Fatalf("%s: split has %d entries, want %d", d.Name(), len(got), d.Channels())
				}
				// Brute force: the elements of each channel's subvector.
				want := make([][]uint32, d.Channels())
				for i := uint32(0); i < v.Length; i++ {
					ch := d.Decode(v.Addr(i)).Channel
					want[ch] = append(want[ch], i)
				}
				for ch := uint32(0); ch < d.Channels(); ch++ {
					h := got[ch]
					if uint32(len(want[ch])) != h.Count {
						t.Fatalf("%s C=%d M=%d v=%+v ch %d: count %d, enumeration has %d",
							d.Name(), shape[0], shape[1], v, ch, h.Count, len(want[ch]))
					}
					if h.Count == 0 {
						if h.First != core.NoHit {
							t.Fatalf("%s ch %d: empty split with First=%d", d.Name(), ch, h.First)
						}
						continue
					}
					if h.First != want[ch][0] {
						t.Fatalf("%s C=%d M=%d v=%+v ch %d: First=%d, enumeration starts at %d",
							d.Name(), shape[0], shape[1], v, ch, h.First, want[ch][0])
					}
					if !modC(d) {
						continue // enumerated split: Delta is nominal
					}
					e := h.First
					for j, w := range want[ch] {
						if e != w {
							t.Fatalf("%s C=%d M=%d v=%+v ch %d elem %d: hit walk gives %d, enumeration %d",
								d.Name(), shape[0], shape[1], v, ch, j, e, w)
						}
						e += h.Delta
					}
				}
			}
		}
	}
}

// TestXORBankPermutes: the hash must actually move banks around (for
// some address the bank differs from plain word interleave) while
// never changing the channel.
func TestXORBankPermutes(t *testing.T) {
	xor, err := Parse("xor", 2, 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	word := MustWordInterleave(2, 16)
	moved := false
	for _, a := range testAddrs() {
		cx, cw := xor.Decode(a), word.Decode(a)
		if cx.Channel != cw.Channel {
			t.Fatalf("xor moved address %#x across channels (%d vs %d)", a, cx.Channel, cw.Channel)
		}
		if cx.Bank != cw.Bank {
			moved = true
		}
	}
	if !moved {
		t.Fatal("xor bank hash is the identity over the test addresses")
	}
}

// TestParse covers the name dispatch and validation.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wantOK bool
		want   string
	}{
		{"", true, "word"},
		{"word", true, "word"},
		{"line", true, "line"},
		{"xor", true, "xor"},
		{"sudoku", false, ""},
	} {
		d, err := Parse(tc.name, 2, 16, 32)
		if tc.wantOK != (err == nil) {
			t.Fatalf("Parse(%q): err = %v", tc.name, err)
		}
		if err == nil && d.Name() != tc.want {
			t.Fatalf("Parse(%q).Name() = %q, want %q", tc.name, d.Name(), tc.want)
		}
	}
	for _, bad := range []struct {
		spec                      string
		channels, banks, lineWord uint32
		want                      string
	}{
		{"word", 3, 16, 32, "addrmap: channels: 3 is not"},
		{"xor", 2, 12, 32, "addrmap: banks: 12 is not"},
		{"line", 2, 16, 24, "addrmap: line words: 24 is not"},
		{"line", 3, 16, 24, "addrmap: channels: 3 is not"},
		{"tuned:1", 2, 0, 32, "addrmap: banks: 0 is not"},
	} {
		if _, err := Parse(bad.spec, bad.channels, bad.banks, bad.lineWord); err == nil || !strings.HasPrefix(err.Error(), bad.want) {
			t.Errorf("Parse(%q, %d, %d, %d) = %v, want an error starting %q",
				bad.spec, bad.channels, bad.banks, bad.lineWord, err, bad.want)
		}
	}
}

// lineRef computes "line" by its closed formula: channel (a / N) mod C,
// and the channel-local address, a with the channel bits cut out,
// word-interleaved over the M banks.
func lineRef(C, M, N, a uint32) Coord {
	c, m, n := bits.TrailingZeros32(C), bits.TrailingZeros32(M), bits.TrailingZeros32(N)
	l := (a>>(n+c))<<n | a&(N-1)
	return Coord{Channel: (a >> n) & (C - 1), Bank: l & (M - 1), BankWord: l >> m}
}

// xorRef computes "xor" by its closed formula: channel a mod C, and the
// word-interleaved bank XORed with every m-bit group of the bank word in
// turn.
func xorRef(C, M, a uint32) Coord {
	c, m := bits.TrailingZeros32(C), bits.TrailingZeros32(M)
	rest := a >> c
	bw := rest >> m
	var fold uint32
	for x := bw; M > 1 && x != 0; x >>= m {
		fold ^= x & (M - 1)
	}
	return Coord{Channel: a & (C - 1), Bank: rest&(M-1) ^ fold, BankWord: bw}
}

// tunedRef is the tuned formula computed mask by mask: channel a mod C,
// and bank bit j of the word-interleaved bank flipped by the bank word's
// parity under masks[j].
func tunedRef(C, M uint32, masks []uint32, a uint32) Coord {
	c, m := bits.TrailingZeros32(C), bits.TrailingZeros32(M)
	rest := a >> c
	co := Coord{Channel: a & (C - 1), Bank: rest & (M - 1), BankWord: rest >> m}
	for j, mk := range masks {
		co.Bank ^= uint32(bits.OnesCount32(co.BankWord&mk)&1) << j
	}
	return co
}

// TestMapMatchesFormulas checks Map against closed formulas computed
// here without it: line and xor, and tuned with random masks, at shapes
// with lines longer than, equal to and shorter than the bank count, and
// one with more than 256 banks, over 8,192 dense and 8,192 random
// addresses each. Decode must give the formula's Coord and Encode must
// invert it.
func TestMapMatchesFormulas(t *testing.T) {
	seed := uint64(0xf0)
	for _, sh := range []struct{ C, M, N uint32 }{
		{1, 16, 32}, {2, 16, 32}, {4, 16, 32}, {8, 4, 32}, {1, 1, 32},
		{4, 1, 8}, {2, 64, 32}, {2, 32, 4}, {2, 512, 32},
	} {
		masks := make([]uint32, bits.TrailingZeros32(sh.M))
		for j := range masks {
			masks[j] = uint32(splitmix64(&seed))
		}
		tuned := MustTuned(sh.C, sh.M, masks)
		line, err := Parse("line", sh.C, sh.M, sh.N)
		if err != nil {
			t.Fatal(err)
		}
		xor, err := Parse("xor", sh.C, sh.M, sh.N)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			d   Decoder
			ref func(a uint32) Coord
		}{
			{line, func(a uint32) Coord { return lineRef(sh.C, sh.M, sh.N, a) }},
			{xor, func(a uint32) Coord { return xorRef(sh.C, sh.M, a) }},
			{tuned, func(a uint32) Coord { return tunedRef(sh.C, sh.M, tuned.Masks, a) }},
		} {
			for i := range 2 * 8192 {
				a := uint32(i)
				if i >= 8192 {
					a = uint32(splitmix64(&seed))
				}
				want := tc.ref(a)
				if got := tc.d.Decode(a); got != want {
					t.Fatalf("%s C=%d M=%d N=%d: Decode(%#x) = %+v, formula %+v", Spec(tc.d), sh.C, sh.M, sh.N, a, got, want)
				}
				if got := tc.d.Encode(want); got != a {
					t.Fatalf("%s C=%d M=%d N=%d: Encode(%+v) = %#x, want %#x", Spec(tc.d), sh.C, sh.M, sh.N, want, got, a)
				}
			}
		}
	}
}

// TestDecodersLinear checks what SameFunction rests on. Every decoder
// (word, line and xor at 1, 2 and 4 channels of 4 and 16 banks, and
// tuned with zero, XOR-fold and random masks, and random masks that
// differ in address bit 31 alone) is GF(2)-linear: address 0 decodes
// to the zero Coord, and Decode(x^y) is Decode(x)^Decode(y) field by
// field. And on every pair of them SameFunction's 33 decodes give the
// verdict of comparing 4,096 random addresses.
func TestDecodersLinear(t *testing.T) {
	seed := uint64(0x11ea)
	var ds []Decoder
	for _, c := range []uint32{1, 2, 4} {
		for _, m := range []uint32{4, 16} {
			random := make([]uint32, bits.TrailingZeros32(m))
			for j := range random {
				random[j] = uint32(splitmix64(&seed))
			}
			// top differs from random only where address bit 31 lands.
			top := slices.Clone(random)
			top[0] ^= 1 << (31 - bits.TrailingZeros32(c*m))
			ds = append(ds, decoders(t, c, m)...)
			ds = append(ds, MustTuned(c, m, nil), MustTuned(c, m, XORFoldMasks(c, m)),
				MustTuned(c, m, random), MustTuned(c, m, top))
		}
	}
	for _, d := range ds {
		if got := d.Decode(0); got != (Coord{}) {
			t.Fatalf("%s C=%d M=%d: Decode(0) = %+v", Spec(d), d.Channels(), d.Banks(), got)
		}
		for range 4096 {
			x, y := uint32(splitmix64(&seed)), uint32(splitmix64(&seed))
			cx, cy := d.Decode(x), d.Decode(y)
			want := Coord{cx.Channel ^ cy.Channel, cx.Bank ^ cy.Bank, cx.BankWord ^ cy.BankWord}
			if got := d.Decode(x ^ y); got != want {
				t.Fatalf("%s C=%d M=%d: Decode(%#x ^ %#x) = %+v, want %+v", Spec(d), d.Channels(), d.Banks(), x, y, got, want)
			}
		}
	}

	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = uint32(splitmix64(&seed))
	}
	crossEqual := 0
	for i, a := range ds {
		for j, b := range ds {
			same := a.Channels() == b.Channels() && a.Banks() == b.Banks()
			for k := 0; same && k < len(addrs); k++ {
				same = a.Decode(addrs[k]) == b.Decode(addrs[k])
			}
			if got := SameFunction(a, b); got != same {
				t.Errorf("SameFunction(%s, %s) at C=%d M=%d = %v, random addresses say %v",
					Spec(a), Spec(b), a.Channels(), a.Banks(), got, same)
			}
			if same && i != j {
				crossEqual++
			}
		}
	}
	// In each of the 6 shapes word = tuned zero masks and xor = tuned
	// fold, 4 ordered pairs; in the 2 one-channel shapes line joins
	// word's class, 4 more.
	if want := 6*4 + 2*4; crossEqual != want {
		t.Errorf("%d ordered pairs of distinct decoders share a function, want %d", crossEqual, want)
	}

	// A decoder of another type is never vouched for, not even against
	// the decoder it wraps.
	w := MustWordInterleave(1, 16)
	if SameFunction(opaque{w}, w) || SameFunction(w, opaque{w}) {
		t.Error("SameFunction vouched for a decoder outside the package")
	}
}

// opaque hides a decoder's type.
type opaque struct{ Decoder }

// benchDecoders runs f as one sub-benchmark per decoder family at one
// and four channels of 16 banks, named "<name>/<C>ch".
func benchDecoders(b *testing.B, f func(b *testing.B, d Decoder)) {
	for _, c := range []uint32{1, 4} {
		for _, spec := range []string{"word", "line", "xor", "tuned:0x40100,0xc0139,0x4000f,0x8013c"} {
			d, err := Parse(spec, c, 16, 32)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%dch", d.Name(), c), func(b *testing.B) { f(b, d) })
		}
	}
}

// The benchmarks' 1,024 addresses per op: stride 19 from a high base.
const benchN, benchBase, benchStride = 1024, 1<<22 + 5, 19

// decodeSink and encodeSink keep the benchmarks' results live.
var (
	decodeSink Coord
	encodeSink uint32
)

// BenchmarkDecode times one Decode call through the Decoder interface,
// as the pre-claim path and the bank views make it, for each decoder
// family at one and four channels of 16 banks. Each op decodes 1,024
// addresses at stride 19 from a high base; it reports ns per decode.
func BenchmarkDecode(b *testing.B) {
	benchDecoders(b, func(b *testing.B, d Decoder) {
		var acc Coord
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := uint32(0); k < benchN; k++ {
				co := d.Decode(benchBase + k*benchStride)
				acc.Channel ^= co.Channel
				acc.Bank ^= co.Bank
				acc.BankWord ^= co.BankWord
			}
		}
		decodeSink = acc
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchN), "ns/decode")
	})
}

// BenchmarkEncode times one Encode call through the Decoder interface,
// as BankView.Compose makes it for every device access under a decoder
// without hit math. Each op encodes the coordinates of BenchmarkDecode's
// 1,024 addresses, decoded before the timer starts; it reports ns per
// encode.
func BenchmarkEncode(b *testing.B) {
	benchDecoders(b, func(b *testing.B, d Decoder) {
		cs := make([]Coord, benchN)
		for k := range cs {
			cs[k] = d.Decode(benchBase + uint32(k)*benchStride)
		}
		var acc uint32
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, co := range cs {
				acc ^= d.Encode(co)
			}
		}
		encodeSink = acc
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchN), "ns/encode")
	})
}
