package addrmap

import (
	"strings"
	"testing"

	"pva/internal/core"
)

// TestTunedParsePrint round-trips every decoder spec form through
// Parse/Spec and pins the error cases: specs must survive a CLI flag,
// a JSON sweep, and the journal config hash verbatim.
func TestTunedParsePrint(t *testing.T) {
	cases := []struct {
		spec      string
		canonical string // "" means Parse must fail
	}{
		{"", "word"},
		{"word", "word"},
		{"line", "line"},
		{"xor", "xor"},
		{"tuned:0x0,0x0,0x0,0x0", "tuned:0x0,0x0,0x0,0x0"},
		{"tuned:0x9,0x12,0x24,0x48", "tuned:0x9,0x12,0x24,0x48"},
		// Decimal masks, whitespace, and omitted trailing zeros all
		// canonicalize to the full lowercase-hex form.
		{"tuned:9, 18,36", "tuned:0x9,0x12,0x24,0x0"},
		{"tuned:0x4", "tuned:0x4,0x0,0x0,0x0"},
		// Mask bits above the bank-word width are dead and cleared:
		// with 1 channel and 16 banks the bank word has 28 bits.
		{"tuned:0xf0000000", "tuned:0x0,0x0,0x0,0x0"},
		{"bogus", ""},
		{"tuned", ""},
		{"tuned:", ""},
		{"tuned:0x1,nope", ""},
		{"tuned:1,2,3,4,5", ""}, // more masks than bank bits
		{"TUNED:0x1", ""},
	}
	for _, c := range cases {
		d, err := Parse(c.spec, 1, 16, 32)
		if c.canonical == "" {
			if err == nil {
				t.Errorf("Parse(%q) succeeded, want error", c.spec)
			} else if c.spec != "tuned:" && c.spec != "tuned" && !strings.HasPrefix(c.spec, "tuned:") &&
				!strings.Contains(err.Error(), "valid:") {
				t.Errorf("Parse(%q) error %q does not list the valid specs", c.spec, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		got := Spec(d)
		if got != c.canonical {
			t.Errorf("Spec(Parse(%q)) = %q, want %q", c.spec, got, c.canonical)
		}
		// The canonical form is a fixed point.
		d2, err := Parse(got, 1, 16, 32)
		if err != nil {
			t.Fatalf("Parse(%q): %v", got, err)
		}
		if Spec(d2) != got {
			t.Errorf("canonical spec %q re-parses to %q", got, Spec(d2))
		}
		if can, err := Canonical(c.spec, 1, 16, 32); err != nil || can != c.canonical {
			t.Errorf("Canonical(%q) = %q, %v; want %q", c.spec, can, err, c.canonical)
		}
	}
	// The channel bits narrow the bank word too: at 4 channels of 16
	// banks it has 26 bits, so bit 25 stays and bit 26 is cleared.
	if can, err := Canonical("tuned:0x6000000", 4, 16, 32); err != nil || can != "tuned:0x2000000,0x0,0x0,0x0" {
		t.Errorf("Canonical(tuned:0x6000000) at 4 channels = %q, %v; want tuned:0x2000000,0x0,0x0,0x0", can, err)
	}
}

// TestTunedUnknownSpecError pins the unknown-decoder error shape: it
// must name the offending spec and enumerate the valid forms, matching
// the kernels.ByName style every CLI surfaces.
func TestTunedUnknownSpecError(t *testing.T) {
	_, err := Parse("fancy", 1, 16, 32)
	if err == nil {
		t.Fatal("Parse accepted an unknown decoder name")
	}
	for _, want := range []string{`"fancy"`, "word", "line", "xor", "tuned:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// splitmix64 is the test's deterministic mask generator.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// TestTunedBijectionProperty checks, for seeded random mask sets across
// channel/bank shapes, that Decode and Encode are exact inverses — no
// two addresses may decode to the same device coordinates, which the
// shared backing store relies on. This is the property that makes the
// whole XOR-hash space safe for the autotuner to search blindly.
func TestTunedBijectionProperty(t *testing.T) {
	seed := uint64(0xA10)
	shapes := []struct{ C, M uint32 }{{1, 16}, {2, 16}, {4, 8}, {1, 1}, {8, 64}}
	for _, sh := range shapes {
		for trial := 0; trial < 8; trial++ {
			var masks []uint32
			for m := sh.M; m > 1; m >>= 1 {
				masks = append(masks, uint32(splitmix64(&seed)))
			}
			d, err := NewTuned(sh.C, sh.M, masks)
			if err != nil {
				t.Fatalf("C=%d M=%d: %v", sh.C, sh.M, err)
			}
			// Encode∘Decode must be the identity on a spread of
			// addresses (dense low range plus random high words), and
			// Decode∘Encode the identity on random coordinates.
			for i := 0; i < 4096; i++ {
				a := uint32(i)
				if i >= 2048 {
					a = uint32(splitmix64(&seed))
				}
				c := d.Decode(a)
				if c.Channel >= sh.C || c.Bank >= sh.M {
					t.Fatalf("%s: Decode(%#x) out of range: %+v", d, a, c)
				}
				if back := d.Encode(c); back != a {
					t.Fatalf("%s: Encode(Decode(%#x)) = %#x", d, a, back)
				}
			}
			for i := 0; i < 2048; i++ {
				r := splitmix64(&seed)
				c := Coord{
					Channel:  uint32(r) % sh.C,
					Bank:     uint32(r>>8) % sh.M,
					BankWord: uint32(r>>32) & (1<<(32-d.hi-d.m) - 1),
				}
				if got := d.Decode(d.Encode(c)); got != c {
					t.Fatalf("%s: Decode(Encode(%+v)) = %+v", d, c, got)
				}
			}
		}
	}
}

// TestTunedZeroMasksMatchesWord pins the anchor of the search space:
// zero masks reproduce WordInterleave's component functions exactly, so
// the autotuner's starting point is the paper's own mapping.
func TestTunedZeroMasksMatchesWord(t *testing.T) {
	tu := MustTuned(2, 16, nil)
	w := MustWordInterleave(2, 16)
	s := uint64(7)
	for i := 0; i < 4096; i++ {
		a := uint32(splitmix64(&s))
		if tu.Decode(a) != w.Decode(a) {
			t.Fatalf("Decode(%#x): tuned %+v, word %+v", a, tu.Decode(a), w.Decode(a))
		}
	}
}

// TestTunedXORFoldMasksMatchXORBank pins the other landmark: masks
// {j, j+m, j+2m, ...} reproduce the classic bank fold (xorRef, which
// folds the bank word group by group), so the classic bank hash is one
// point of the searched space.
func TestTunedXORFoldMasksMatchXORBank(t *testing.T) {
	const C, M = 1, 16
	tu := MustTuned(C, M, XORFoldMasks(C, M))
	s := uint64(11)
	for i := 0; i < 4096; i++ {
		a := uint32(splitmix64(&s))
		if got, want := tu.Decode(a), xorRef(C, M, a); got != want {
			t.Fatalf("Decode(%#x): tuned %+v, xor %+v", a, got, want)
		}
	}
}

// TestTunedChannelSplitAgreesWithEnumeration cross-checks the
// closed-form channel split against element enumeration, the same
// contract the channel dispatcher relies on at broadcast time.
func TestTunedChannelSplitAgreesWithEnumeration(t *testing.T) {
	d := MustTuned(4, 16, []uint32{0x5, 0xa, 0x3, 0xc})
	for _, v := range []core.Vector{
		{Base: 0, Stride: 1, Length: 32},
		{Base: 7, Stride: 19, Length: 32},
		{Base: 123, Stride: 4, Length: 17},
		{Base: 1 << 20, Stride: 16, Length: 32},
	} {
		hits := SplitVector(d, v)
		for ch := uint32(0); ch < 4; ch++ {
			var count uint32
			first := core.NoHit
			for i := uint32(0); i < v.Length; i++ {
				if d.Decode(v.Addr(i)).Channel == ch {
					if count == 0 {
						first = i
					}
					count++
				}
			}
			h := hits[ch]
			if h.Count != count || (count > 0 && h.First != first) {
				t.Fatalf("%+v channel %d: split %+v, enumeration first=%d count=%d",
					v, ch, h, first, count)
			}
		}
	}
}
