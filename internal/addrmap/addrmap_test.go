package addrmap

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"pva/internal/core"
)

// decoders returns one of each decoder family at the given shape.
func decoders(t *testing.T, channels, banks uint32) []Decoder {
	t.Helper()
	word, err := NewWordInterleave(channels, banks)
	if err != nil {
		t.Fatal(err)
	}
	line, err := NewLineInterleave(channels, banks, 32)
	if err != nil {
		t.Fatal(err)
	}
	xor, err := NewXORBank(channels, banks)
	if err != nil {
		t.Fatal(err)
	}
	return []Decoder{word, line, xor}
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

// TestSplitVectorAgreement: the closed-form channel split must agree
// element for element with brute-force enumeration through Decode.
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
					if _, closed := d.(ChannelSplitter); !closed {
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
	xor := MustXORBank(2, 16)
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

// TestNew covers the constructor's name dispatch and validation.
func TestNew(t *testing.T) {
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
		d, err := New(tc.name, 2, 16, 32)
		if tc.wantOK != (err == nil) {
			t.Fatalf("New(%q): err = %v", tc.name, err)
		}
		if err == nil && d.Name() != tc.want {
			t.Fatalf("New(%q).Name() = %q, want %q", tc.name, d.Name(), tc.want)
		}
	}
	if _, err := New("word", 3, 16, 32); err == nil {
		t.Fatal("New accepted a non-power-of-two channel count")
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

// decodeSink keeps BenchmarkDecode's results live.
var decodeSink Coord

// BenchmarkDecode times one Decode call through the Decoder interface,
// as the pre-claim path and the bank views make it, for each decoder
// family at one and four channels of 16 banks. Each op decodes 1,024
// addresses at stride 19 from a high base; it reports ns per decode.
func BenchmarkDecode(b *testing.B) {
	const n, base, stride = 1024, 1<<22 + 5, 19
	for _, c := range []uint32{1, 4} {
		for _, spec := range []string{"word", "line", "xor", "tuned:0x40100,0xc0139,0x4000f,0x8013c"} {
			d, err := Parse(spec, c, 16, 32)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%dch", d.Name(), c), func(b *testing.B) {
				var acc Coord
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for k := uint32(0); k < n; k++ {
						co := d.Decode(base + k*stride)
						acc.Channel ^= co.Channel
						acc.Bank ^= co.Bank
						acc.BankWord ^= co.BankWord
					}
				}
				decodeSink = acc
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/decode")
			})
		}
	}
}
