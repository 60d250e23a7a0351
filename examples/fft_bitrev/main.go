// FFT bit-reversal: the second extension of the paper's conclusion.
// The bit-reversed reorder has terrible cache locality; a memory
// controller that understands the pattern can gather it directly. The
// paper observes the operation is inherently sequential for
// word-interleaved memory but parallelizes under block interleaving —
// this example quantifies that and performs the gather with indexed
// vector commands on a live Session.
//
//	go run ./examples/fft_bitrev
package main

import (
	"fmt"

	"pva"
)

func main() {
	const bits = 10 // 1024-point FFT
	const base = 1 << 20
	const line = 32

	addrs := pva.BitRevAddresses(base, bits, 1)
	fmt.Printf("bit-reversed gather of a %d-point FFT input\n\n", 1<<bits)

	// How many banks can work in parallel per 32-element chunk?
	word := func(a uint32) uint32 { return a % 16 }
	block := func(a uint32) uint32 { return (a / 32) % 16 }
	wa := pva.AnalyzeBitRev(addrs, line, word)
	ba := pva.AnalyzeBitRev(addrs, line, block)
	fmt.Printf("banks touched per 32-element chunk (16 banks):\n")
	fmt.Printf("  word interleave:       mean %4.1f  min %d  max %d   (inherently sequential)\n",
		wa.MeanBanksPerChunk, wa.MinBanksPerChunk, wa.MaxBanksPerChunk)
	fmt.Printf("  cache-line interleave: mean %4.1f  min %d  max %d   (parallelizable)\n\n",
		ba.MeanBanksPerChunk, ba.MinBanksPerChunk, ba.MaxBanksPerChunk)

	ses, err := pva.Open(pva.DefaultConfig())
	if err != nil {
		panic(err)
	}
	// Seed x[i] = 1000+i with unit-stride line writes.
	for s := uint32(0); s < 1<<bits; s += line {
		data := make([]uint32, line)
		for j := range data {
			data[j] = 1000 + s + uint32(j)
		}
		if _, err := ses.Issue(pva.VectorCmd{
			Op:   pva.Write,
			V:    pva.Vector{Base: base + s, Stride: 1, Length: line},
			Data: data,
		}); err != nil {
			panic(err)
		}
	}
	if err := ses.Drain(); err != nil {
		panic(err)
	}

	// Gather one 32-element line per indexed command. The index list
	// carries the whole word addresses (Base 0), so every bank claims
	// its own elements off the broadcast. Under word interleaving each
	// line lands on one bank, but successive lines land on different
	// banks, so the commands in flight overlap.
	start := ses.Now()
	var tickets []pva.Ticket
	for s := 0; s < len(addrs); s += line {
		tk, err := ses.Issue(pva.VectorCmd{
			Op:  pva.Read,
			V:   pva.Vector{Base: 0, Stride: 0, Length: line},
			Idx: addrs[s : s+line],
		})
		if err != nil {
			panic(err)
		}
		tickets = append(tickets, tk)
	}
	out := make([]uint32, 0, len(addrs))
	var end uint64
	for _, tk := range tickets {
		info, err := ses.Wait(tk)
		if err != nil {
			panic(err)
		}
		out = append(out, info.Data...)
		end = max(end, info.CompletedAt)
	}
	fmt.Printf("gathered %d elements in %d cycles (%.1f per 32-element line)\n",
		len(out), end-start, float64(end-start)/float64(len(tickets)))

	// Verify: out[i] must be x[reverse(i)].
	for i := range out {
		want := 1000 + pva.BitReverse(uint32(i), bits)
		if out[i] != want {
			fmt.Printf("MISMATCH at %d: got %d want %d\n", i, out[i], want)
			return
		}
	}
	fmt.Println("bit-reversed permutation verified element by element")
}
