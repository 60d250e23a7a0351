package pvaunit

import (
	"math/rand/v2"
	"slices"
	"testing"

	"pva/internal/addrmap"
	"pva/internal/core"
	"pva/internal/memsys"
)

// claimCmds are the commands the claim-list differential replays, in an
// order that grows and shrinks the reused list: strided commands with
// stride 0, a power of two and 19, and indexed commands with duplicate
// and descending offsets.
func claimCmds() []memsys.VectorCmd {
	desc := make([]uint32, 40)
	for i := range desc {
		desc[i] = uint32(len(desc)-i) * 37
	}
	dups := []uint32{5, 5, 1 << 20, 5, 3, 3, 1<<20 + 16, 0, 5}
	return []memsys.VectorCmd{
		{Op: memsys.Read, V: core.Vector{Base: 100, Stride: 0, Length: 32}},
		{Op: memsys.Read, V: core.Vector{Base: 3, Stride: 8, Length: 32}},
		{Op: memsys.Read, V: core.Vector{Base: 1 << 16, Stride: 19, Length: 64}},
		{Op: memsys.Read, V: core.Vector{Base: 7, Stride: 0, Length: uint32(len(dups))}, Idx: dups},
		{Op: memsys.Read, V: core.Vector{Base: 1 << 12, Stride: 0, Length: uint32(len(desc))}, Idx: desc},
		{Op: memsys.Read, V: core.Vector{Base: 1, Stride: 1 << 9, Length: 5}},
		{Op: memsys.Read, V: core.Vector{Base: 0, Stride: 19, Length: 1}},
	}
}

// claimDecoders returns word, line, xor and two random tuned decoders.
func claimDecoders(t *testing.T, rng *rand.Rand, C, M uint32) []addrmap.Decoder {
	t.Helper()
	var decs []addrmap.Decoder
	for _, name := range []string{"word", "line", "xor"} {
		d, err := addrmap.Parse(name, C, M, 32)
		if err != nil {
			t.Fatal(err)
		}
		decs = append(decs, d)
	}
	for range 2 {
		masks := make([]uint32, 0, 4)
		for b := M; b > 1; b >>= 1 {
			masks = append(masks, rng.Uint32())
		}
		d, err := addrmap.NewTuned(C, M, masks)
		if err != nil {
			t.Fatal(err)
		}
		decs = append(decs, d)
	}
	return decs
}

// TestClaimListMatchesBruteForce checks the dispatcher's pre-claimed
// lists: for every decoder and (channel, bank), the slice a controller
// receives must equal the ascending set of element indices whose address
// decodes to it, computed here element by element, and each channel's
// owner mask and largest claim must match those slices. One list is
// reused across all commands, as one transaction ID is.
func TestClaimListMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))
	cmds := claimCmds()
	for _, C := range []uint32{1, 2, 4} {
		for _, M := range []uint32{4, 16} {
			for _, dec := range claimDecoders(t, rng, C, M) {
				var cl claimList
				for ci := range cmds {
					c := &cmds[ci]
					if err := memsys.ValidateCmd(*c, 0); err != nil {
						t.Fatal(err)
					}
					cl.build(dec, c)
					for ch := uint32(0); ch < C; ch++ {
						var owners uint64
						var maxClaim uint32
						for b := uint32(0); b < M; b++ {
							want := []uint32{}
							for e := uint32(0); e < c.V.Length; e++ {
								if co := dec.Decode(c.Addr(e)); co.Channel == ch && co.Bank == b {
									want = append(want, e)
								}
							}
							got := cl.bank(int(ch*M + b))
							if got == nil || !slices.Equal(got, want) {
								t.Fatalf("%s C=%d M=%d cmd %d (ch %d, bank %d): got %v, want %v",
									dec.Name(), C, M, ci, ch, b, got, want)
							}
							if len(want) > 0 {
								owners |= 1 << b
								maxClaim = max(maxClaim, uint32(len(want)))
							}
						}
						if cl.owners[ch] != owners || cl.maxClaim[ch] != maxClaim {
							t.Fatalf("%s C=%d M=%d cmd %d ch %d: owners %#x max claim %d, want %#x and %d",
								dec.Name(), C, M, ci, ch, cl.owners[ch], cl.maxClaim[ch], owners, maxClaim)
						}
					}
				}
			}
		}
	}
}
