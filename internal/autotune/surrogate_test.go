package autotune

import (
	"encoding/binary"
	"math/bits"
	"strings"
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
// must stay equal after a random sequence of accepted flips, so a label,
// touch record or trace cost left stale by accept fails here. Half the
// flips are accepted directly, so the scorer prices the traces again;
// the other half are scored first, as the greedy climb does, so accept
// adopts the neighbour's trace costs. Those toggle a bit that is
// constant in one trace and varies in another, where a trace keeps its
// cost while others are priced.
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
				perTrace := perTraceBits(trs, 32-width) & (1<<width - 1)
				if perTrace == 0 {
					t.Fatalf("C=%d M=%d %s: no bank-word bit is constant in one trace and varies in another", c, m, kind)
				}
				sc := mustScorer(t, trs, geom, c, m)
				masks := make([]uint32, lm)
				for j := range masks {
					masks[j] = uint32(splitmix64(&seed))
				}
				ref := func(masks []uint32) uint64 {
					return refCost(trs, geom, addrmap.MustTuned(c, m, masks))
				}
				neighbour := func(stage string, j int, b uint) {
					t.Helper()
					masks[j] ^= 1 << b
					want := ref(masks)
					masks[j] ^= 1 << b
					if got, _ := sc.neighbour(masks, j, b); got != want {
						t.Fatalf("C=%d M=%d %s %s: neighbour (mask %d, bit %d) cost %d, decoder says %d",
							c, m, kind, stage, j, b, got, want)
					}
				}
				check := func(stage string) {
					t.Helper()
					want := ref(masks)
					if kept, fresh := loadedCost(sc); kept != want || fresh != want {
						t.Fatalf("C=%d M=%d %s %s: current cost %d kept, %d priced, decoder says %d", c, m, kind, stage, kept, fresh, want)
					}
					for j := range masks {
						for b := uint(0); b < width; b++ {
							neighbour(stage, j, b)
						}
					}
				}
				if got, want := mustLoad(t, sc, masks), ref(masks); got != want {
					t.Fatalf("C=%d M=%d %s: load cost %d, decoder says %d", c, m, kind, got, want)
				}
				check("after load")
				for step := 0; step < 6; step++ {
					r := splitmix64(&seed)
					j, b := int(r%uint64(lm)), uint(r>>32)%width
					if step%2 == 1 {
						b = nthBit(perTrace, int(r>>32)%bits.OnesCount32(perTrace))
						neighbour("before accepting", j, b)
					}
					sc.accept(j, b)
					masks[j] ^= 1 << b
					check("after accepted flips")
				}
			}
		}
	}
}

// perTraceBits is the mask of bank-word bits (the address bits above
// shift) that vary within some trace and are constant within another.
func perTraceBits(trs []kernels.AddressTrace, shift uint) uint32 {
	some, all := uint32(0), ^uint32(0)
	for _, tr := range trs {
		v := varyingBits([]kernels.AddressTrace{tr}, shift)
		some, all = some|v, all&v
	}
	return some &^ all
}

// nthBit returns the index of the nth set bit of v, from 0.
func nthBit(v uint32, n int) uint {
	for ; n > 0; n-- {
		v &= v - 1
	}
	return uint(bits.TrailingZeros32(v))
}

// loadedCost returns the cost of the scorer's loaded labels twice: as
// the sum of the trace costs it keeps, and priced afresh.
func loadedCost(sc *scorer) (kept, fresh uint64) {
	for t := range sc.spans {
		kept += sc.costs[t]
		fresh += sc.traceCost(t, 0, 0)
	}
	return kept, fresh
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
		if kept, fresh := loadedCost(sc); kept != want || fresh != want {
			t.Fatalf("after accepting (mask %d, bit %d): cost %d kept, %d priced, decoder says %d", nb.j, nb.b, kept, fresh, want)
		}
	}
}

// TestSurrogateTouchCapacity: a command that touches every (unit,
// internal bank) slot, across all four internal banks, needs units × 4
// touch records, and one more element repeats a slot, so that bound is
// what sizes its run. At C·M = 4 and 16 the load and every one-bit
// neighbour must cost what the decoder says; the next command switches
// rows in some of those slots, so a record lost or written into its run
// shows.
func TestSurrogateTouchCapacity(t *testing.T) {
	geom := pvaunit.PaperConfig().SGeom
	for _, sh := range []struct{ c, m uint32 }{{1, 4}, {1, 16}, {4, 4}} {
		units := sh.c * sh.m
		shift := bits.TrailingZeros32(units)
		var all, next []uint32
		for ib := uint32(0); ib < geom.InternalBanks; ib++ {
			for u := uint32(0); u < units; u++ {
				all = append(all, ib*geom.RowWords<<shift|u)
				if u%3 == 0 { // the same slot one row on
					next = append(next, (geom.InternalBanks+ib)*geom.RowWords<<shift|u)
				}
			}
		}
		all = append(all, all[1])
		trs := []kernels.AddressTrace{{Name: "slots", Cmds: [][]uint32{all, next, all}}}
		sc := mustScorer(t, trs, geom, sh.c, sh.m)
		if got, want := sc.bits[0].end-sc.bits[0].at, units*geom.InternalBanks; got != want {
			t.Fatalf("C=%d M=%d: %d touch records for a command of %d elements over %d slots", sh.c, sh.m, got, len(all), want)
		}
		for _, masks := range [][]uint32{make([]uint32, bits.TrailingZeros32(sh.m)), addrmap.XORFoldMasks(sh.c, sh.m)} {
			checkNeighbours(t, sc, trs, geom, sh.c, sh.m, masks)
		}
	}
}

// TestSurrogateRejectsWideTouchRecords: a touch record packs a unit
// label above a (row, internal bank) key in 32 bits. newScorer refuses
// a shape whose two do not fit, naming both sizes, and prices one that
// fills all 32 bits exactly as the decoder does. It also refuses rows so
// long that the internal bank would sit above the address.
func TestSurrogateRejectsWideTouchRecords(t *testing.T) {
	geom := addr.MustSDRAMGeom(4, 512, 1<<28) // a 30-bit key
	var cmd []uint32
	for i := uint32(0); i < 32; i++ {
		cmd = append(cmd, i*0x2f3b1d7)
	}
	trs := []kernels.AddressTrace{{Name: "wide rows", Cmds: [][]uint32{cmd, cmd[7:19]}}}
	_, err := newScorer(trs, geom, 2, 4)
	if err == nil || !strings.Contains(err.Error(), "3-bit unit label") || !strings.Contains(err.Error(), "30-bit") {
		t.Fatalf("8 units over 2^30 (row, internal bank) keys: got error %v, want one naming a 3-bit label and a 30-bit key", err)
	}
	sc := mustScorer(t, trs, geom, 1, 4)
	checkNeighbours(t, sc, trs, geom, 1, 4, []uint32{0x12345, 0x0f0f0f0})
	// 16 units of 2^28-word rows start the internal bank at address bit 32.
	if _, err := newScorer(trs, addr.MustSDRAMGeom(4, 1<<28, 4), 1, 16); err == nil || !strings.Contains(err.Error(), "above address bit 31") {
		t.Fatalf("internal bank at address bit 32: got error %v", err)
	}
}

// checkNeighbours loads masks on sc and fails unless the load and every
// one-bit neighbour cost what the decoder says.
func checkNeighbours(t *testing.T, sc *scorer, trs []kernels.AddressTrace, geom addr.SDRAMGeom, c, m uint32, masks []uint32) {
	t.Helper()
	ref := func() uint64 { return refCost(trs, geom, addrmap.MustTuned(c, m, masks)) }
	if got, want := mustLoad(t, sc, masks), ref(); got != want {
		t.Fatalf("C=%d M=%d masks %#x: load cost %d, decoder says %d", c, m, masks, got, want)
	}
	for j := range masks {
		for b := uint(0); b < uint(32-bits.TrailingZeros32(c*m)); b++ {
			masks[j] ^= 1 << b
			want := ref()
			got, _ := sc.neighbour(masks, j, b)
			masks[j] ^= 1 << b
			if got != want {
				t.Fatalf("C=%d M=%d masks %#x: neighbour (mask %d, bit %d) cost %d, decoder says %d", c, m, masks, j, b, got, want)
			}
		}
	}
}

// FuzzSurrogate runs the scorer differentially against refCost on a
// fuzzer-chosen shape (C in {1, 2, 4}, M in {4, 8, 16}), commands, masks
// and climb. raw is read as commands: a header byte h (1 + h&7
// elements; h&0x80 starts a new trace), then four little-endian bytes
// per element address. maskBytes holds four little-endian bytes per mask
// (0 where it runs out). Each byte s of steps names mask s&3 and
// bank-word bit s>>2&31, each taken modulo its range: below 0x80 it
// scores that neighbour, from 0x80 it accepts it, which adopts the
// neighbour's trace costs when the step before scored the same toggle.
func FuzzSurrogate(f *testing.F) {
	geom := pvaunit.PaperConfig().SGeom
	row := geom.InternalBanks * geom.RowWords // one row on, in the same internal bank
	strided := func(base, stride uint32, n int) []uint32 {
		cmd := make([]uint32, n)
		for i := range cmd {
			cmd[i] = base + uint32(i)*stride
		}
		return cmd
	}
	// Two traces: one holds bank-word bits 4 and up constant, the other
	// varies in them and opens a second row in a slot.
	two := fuzzCmds([][][]uint32{
		{strided(0, 1, 8), strided(3, 2, 8)},
		{strided(5, 19, 8), strided(1<<12, 37, 8), {7, 7 + row<<4, 7 + 2*row<<4}},
	})
	steps := []byte{4<<2 | 1, 4<<2 | 1 | 0x80, 9 << 2, 2<<2 | 0x80, 9<<2 | 3, 9<<2 | 3 | 0x80, 0}
	for shape := uint8(0); shape < 9; shape += 4 {
		f.Add(shape, two, []byte{0x31, 0x12, 0, 0, 0x04, 0x28}, steps)
	}
	f.Add(uint8(2), fuzzCmds([][][]uint32{{strided(1<<20, 16, 8)}, {strided(0, 1, 8)}}), []byte(nil), []byte{0x80, 1, 0x81})
	f.Fuzz(func(t *testing.T, shape uint8, raw, maskBytes, steps []byte) {
		c, m := []uint32{1, 2, 4}[shape%3], []uint32{4, 8, 16}[shape/3%3]
		var trs []kernels.AddressTrace
		for cmds := 0; len(raw) > 0 && cmds < 16; cmds++ {
			h, n := raw[0], 1+int(raw[0]&7)
			if len(raw) < 1+4*n {
				break
			}
			if h&0x80 != 0 || len(trs) == 0 {
				trs = append(trs, kernels.AddressTrace{Name: "fuzz"})
			}
			cmd := make([]uint32, n)
			for i := range cmd {
				cmd[i] = binary.LittleEndian.Uint32(raw[1+4*i:])
			}
			trs[len(trs)-1].Cmds = append(trs[len(trs)-1].Cmds, cmd)
			raw = raw[1+4*n:]
		}
		if len(trs) == 0 {
			return
		}
		lm, width := bits.TrailingZeros32(m), uint(32-bits.TrailingZeros32(c*m))
		masks := make([]uint32, lm)
		for j := range masks {
			if len(maskBytes) >= 4*j+4 {
				masks[j] = binary.LittleEndian.Uint32(maskBytes[4*j:])
			}
		}
		ref := func() uint64 { return refCost(trs, geom, addrmap.MustTuned(c, m, masks)) }
		sc := mustScorer(t, trs, geom, c, m)
		if got, want := mustLoad(t, sc, masks), ref(); got != want {
			t.Fatalf("C=%d M=%d: load cost %d, decoder says %d", c, m, got, want)
		}
		for i, s := range steps[:min(len(steps), 32)] {
			j, b := int(s&3)%lm, uint(s>>2&31)%width
			masks[j] ^= 1 << b
			want := ref()
			if s < 0x80 {
				got, _ := sc.neighbour(masks, j, b)
				masks[j] ^= 1 << b
				if got != want {
					t.Fatalf("C=%d M=%d step %d: neighbour (mask %d, bit %d) cost %d, decoder says %d", c, m, i, j, b, got, want)
				}
				continue
			}
			sc.accept(j, b)
			if kept, fresh := loadedCost(sc); kept != want || fresh != want {
				t.Fatalf("C=%d M=%d step %d: after accepting (mask %d, bit %d) cost %d kept, %d priced, decoder says %d",
					c, m, i, j, b, kept, fresh, want)
			}
		}
	})
}

// fuzzCmds encodes traces of commands in FuzzSurrogate's raw format.
// Commands longer than 8 elements do not encode.
func fuzzCmds(traces [][][]uint32) []byte {
	var raw []byte
	for _, tr := range traces {
		for i, cmd := range tr {
			h := byte(len(cmd) - 1)
			if i == 0 {
				h |= 0x80
			}
			raw = append(raw, h)
			for _, a := range cmd {
				raw = binary.LittleEndian.AppendUint32(raw, a)
			}
		}
	}
	return raw
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
