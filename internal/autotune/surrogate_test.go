package autotune

import (
	"math/bits"
	"testing"

	"pva/internal/addr"
	"pva/internal/addrmap"
	"pva/internal/kernels"
	"pva/internal/pvaunit"
)

// refCost is the surrogate cost computed the way the decoder defines
// it, sharing no scratch with the scorer: one addrmap.Map.Decode per
// element, SDRAMGeom.Decompose on its bank word, and units labeled
// channel*banks+bank.
func refCost(traces []kernels.AddressTrace, geom addr.SDRAMGeom, d *addrmap.Map) uint64 {
	var total uint64
	for _, tr := range traces {
		lastRow := map[uint32]uint32{}
		for _, cmd := range tr.Cmds {
			claims := map[uint32]uint32{}
			var maxClaim uint32
			for _, a := range cmd {
				co := d.Decode(a)
				u := co.Channel*d.M + co.Bank
				claims[u]++
				maxClaim = max(maxClaim, claims[u])
				dc := geom.Decompose(co.BankWord)
				slot := u*geom.InternalBanks + dc.IBank
				if r, open := lastRow[slot]; !open || r != dc.Row {
					if open {
						total += rowSwitchWeight
					}
					lastRow[slot] = dc.Row
				}
			}
			total += uint64(maxClaim)
		}
	}
	return total
}

// captureKernel records a kernel's address traces at several strides.
func captureKernel(t testing.TB, name string, strides []uint32, elements uint32) []kernels.AddressTrace {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []kernels.AddressTrace
	for _, st := range strides {
		p := kernels.PaperParams(st, 1)
		p.Elements = elements
		out = append(out, kernels.Capture(k, p))
	}
	return out
}

// wideTrace is a synthetic trace spread over many rows and internal
// banks, which the paper kernels' small footprints barely reach: 16
// commands of 32 elements, strided by 1031 words from scattered bases,
// or (indexed) at random word addresses below 1<<22.
func wideTrace(seed uint64, indexed bool) kernels.AddressTrace {
	tr := kernels.AddressTrace{Name: "wide"}
	for c := 0; c < 16; c++ {
		base := uint32(splitmix64(&seed)) & (1<<22 - 1)
		cmd := make([]uint32, 32)
		for i := range cmd {
			if indexed {
				cmd[i] = uint32(splitmix64(&seed)) & (1<<22 - 1)
			} else {
				cmd[i] = base + uint32(i)*1031
			}
		}
		tr.Cmds = append(tr.Cmds, cmd)
	}
	return tr
}

// TestSurrogateMatchesDecoder is the scorer's differential pin: under
// random masks, every one-bit neighbour the delta scorer prices must
// equal the decoder-defined cost of that neighbour's mask set, and it
// must stay equal after a random sequence of accepted flips, so a label
// left stale by accept fails here.
func TestSurrogateMatchesDecoder(t *testing.T) {
	geom := pvaunit.PaperConfig().SGeom
	traces := map[string][]kernels.AddressTrace{
		"strided": append(captureKernel(t, "saxpy", []uint32{1, 4, 19}, 96), wideTrace(1, false)),
		"indexed": append(captureKernel(t, "gather", []uint32{1, 19}, 96), wideTrace(2, true)),
	}
	seed := uint64(2024)
	for _, c := range []uint32{1, 2, 4} {
		for _, m := range []uint32{4, 8, 16} {
			lm := bits.TrailingZeros32(m)
			width := uint(32 - bits.TrailingZeros32(c*m))
			for kind, trs := range traces {
				sc := mustScorer(t, trs, geom, c, m)
				masks := make([]uint32, lm)
				for j := range masks {
					masks[j] = uint32(splitmix64(&seed))
				}
				ref := func(masks []uint32) uint64 {
					return refCost(trs, geom, addrmap.MustTuned(c, m, masks))
				}
				check := func(stage string) {
					t.Helper()
					if got, want := sc.score(0, 0), ref(masks); got != want {
						t.Fatalf("C=%d M=%d %s %s: current cost %d, decoder says %d", c, m, kind, stage, got, want)
					}
					for j := range masks {
						for b := uint(0); b < width; b++ {
							masks[j] ^= 1 << b
							want := ref(masks)
							masks[j] ^= 1 << b
							if got, _ := sc.neighbour(masks, j, b); got != want {
								t.Fatalf("C=%d M=%d %s %s: neighbour (mask %d, bit %d) cost %d, decoder says %d",
									c, m, kind, stage, j, b, got, want)
							}
						}
					}
				}
				if got, want := mustLoad(t, sc, masks), ref(masks); got != want {
					t.Fatalf("C=%d M=%d %s: load cost %d, decoder says %d", c, m, kind, got, want)
				}
				check("after load")
				for step := 0; step < 3; step++ {
					r := splitmix64(&seed)
					j, b := int(r%uint64(lm)), uint(r>>32)%width
					sc.accept(j, b)
					masks[j] ^= 1 << b
					check("after accepted flips")
				}
			}
		}
	}
}

// TestSurrogateLongCommand: a command too long for the summaries'
// uint16 element indices is priced element by element. Its last
// element, past index 65535, opens the row that the next command
// switches away from under word interleave.
func TestSurrogateLongCommand(t *testing.T) {
	geom := pvaunit.PaperConfig().SGeom
	long := make([]uint32, 1<<16+1) // address 0, then unit 5's row 0
	long[1<<16] = 5
	next := uint32(1<<15 | 5) // unit 5, same internal bank, row 1
	trs := []kernels.AddressTrace{{Name: "long", Cmds: [][]uint32{long, {next}}}}
	sc := mustScorer(t, trs, geom, 1, 16)
	masks := make([]uint32, 4)
	ref := func() uint64 { return refCost(trs, geom, addrmap.MustTuned(1, 16, masks)) }
	if got, want := mustLoad(t, sc, masks), ref(); got != want {
		t.Fatalf("load cost %d, decoder says %d", got, want)
	}
	for _, nb := range []struct {
		j int
		b uint
	}{{2, 3}, {0, 11}, {1, 11}} {
		masks[nb.j] ^= 1 << nb.b
		want := ref()
		if got, _ := sc.neighbour(masks, nb.j, nb.b); got != want {
			t.Fatalf("neighbour (mask %d, bit %d) cost %d, decoder says %d", nb.j, nb.b, got, want)
		}
		sc.accept(nb.j, nb.b)
		if got := sc.score(0, 0); got != want {
			t.Fatalf("after accepting (mask %d, bit %d): cost %d, decoder says %d", nb.j, nb.b, got, want)
		}
	}
}

func mustScorer(t testing.TB, trs []kernels.AddressTrace, geom addr.SDRAMGeom, c, m uint32) *scorer {
	t.Helper()
	sc, err := newScorer(trs, geom, c, m)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func mustLoad(t *testing.T, sc *scorer, masks []uint32) uint64 {
	t.Helper()
	c, err := sc.load(masks)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSurrogateNeighbourAllocsNothing pins the climb's inner loop to
// zero allocations: scoring and accepting a neighbour reuse the
// scorer's scratch.
func TestSurrogateNeighbourAllocsNothing(t *testing.T) {
	trs := captureKernel(t, "swap", []uint32{1, 19}, 128)
	sc := mustScorer(t, trs, pvaunit.PaperConfig().SGeom, 2, 16)
	mustLoad(t, sc, addrmap.XORFoldMasks(2, 16))
	if n := testing.AllocsPerRun(50, func() {
		sc.neighbour(nil, 2, 5)
		sc.accept(1, 3)
	}); n != 0 {
		t.Fatalf("neighbour evaluation allocates %.1f times", n)
	}
}

// BenchmarkSurrogateNeighbourVaryingBits is the surrogate rung's unit
// of work: one greedy neighbour of the xor landmark scored over swap at
// the paper strides on 1024-element vectors. It cycles the four masks
// and the bank-word bits that vary across the traces (bits 0–10, 18 and
// 19), the bits a search toggles.
func BenchmarkSurrogateNeighbourVaryingBits(b *testing.B) {
	trs := captureKernel(b, "swap", []uint32{1, 2, 4, 8, 16, 19}, 1024)
	sc := mustScorer(b, trs, pvaunit.PaperConfig().SGeom, 1, 16)
	if _, err := sc.load(addrmap.XORFoldMasks(1, 16)); err != nil {
		b.Fatal(err)
	}
	var vary []uint
	for v := varyingBits(trs, 4); v != 0; v &= v - 1 {
		vary = append(vary, uint(bits.TrailingZeros32(v)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCost, _ = sc.neighbour(nil, i&3, vary[i%len(vary)])
	}
}

// benchCost keeps the benchmarked scores live.
var benchCost uint64
