package pva

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// The fuzzers drive random vector-command traces through the cycle-level
// systems and demand word-for-word agreement with the functional
// reference — both the gathered lines and the final memory image. One
// command is ten bytes: flags, a 32-bit base, a 32-bit stride, a length
// byte. Flag bit 0 selects write, bit 1 dataflow (Compute from the last
// read), bit 2 the indexed command kind — the stride field then seeds a
// deterministic index list (offsets below 2^18) instead of a stride.
// The PVA parser caps bases below 2^24 and strides below 2^18 so
// no vector wraps the 32-bit address space: the front end's conflict
// guard reasons about non-wrapping bounds, and a wrapped write may
// legitimately reorder. The baseline parser keeps the full ranges —
// those systems execute strictly in program order.
const fuzzCmdBytes = 10

func parseFuzzTrace(data []byte, forPVA bool) (Trace, bool) {
	n := len(data) / fuzzCmdBytes
	if n == 0 {
		return Trace{}, false
	}
	if n > 6 {
		n = 6
	}
	var tr Trace
	lastRead := -1
	for i := 0; i < n; i++ {
		rec := data[i*fuzzCmdBytes:]
		flags := rec[0]
		base := binary.LittleEndian.Uint32(rec[1:5])
		stride := binary.LittleEndian.Uint32(rec[5:9])
		length := uint32(rec[9])%32 + 1
		if forPVA {
			base &= 1<<24 - 1
			stride &= 1<<18 - 1
		}
		cmd := VectorCmd{V: Vector{Base: base, Stride: stride, Length: length}}
		if flags&4 != 0 {
			// Indexed kind: a deterministic index list derived from the
			// record. Offsets stay below 2^18 so PVA-capped bases never
			// wrap the address space.
			idx := make([]uint32, length)
			for j := range idx {
				h := base ^ stride*2654435761 ^ uint32(j)*40503
				h ^= h >> 13
				idx[j] = h % (1 << 18)
			}
			cmd.V.Stride = 0
			cmd.Idx = idx
		}
		if flags&1 == 0 {
			cmd.Op = Read
			lastRead = len(tr.Cmds)
		} else {
			cmd.Op = Write
			if flags&2 != 0 && lastRead >= 0 {
				// Dataflow: derive the written line from an earlier gather.
				dep := lastRead
				cmd.DependsOn = []int{dep}
				cmd.Compute = func(deps [][]uint32) []uint32 {
					out := make([]uint32, length)
					for j := range out {
						out[j] = deps[0][j%len(deps[0])] + 1
					}
					return out
				}
			} else {
				cmd.Data = make([]uint32, length)
				for j := range cmd.Data {
					cmd.Data[j] = base ^ stride ^ uint32(j)
				}
			}
		}
		tr.Cmds = append(tr.Cmds, cmd)
	}
	return tr, true
}

// seedCmd encodes one command record for the fuzz corpora.
func seedCmd(flags byte, base, stride uint32, length byte) []byte {
	rec := make([]byte, fuzzCmdBytes)
	rec[0] = flags
	binary.LittleEndian.PutUint32(rec[1:5], base)
	binary.LittleEndian.PutUint32(rec[5:9], stride)
	rec[9] = length
	return rec
}

func fuzzSeeds(f *testing.F) {
	// The paper's strides, the degenerate and power-of-two edges, and an
	// odd-times-power-of-two stride, each as a read/write pair, plus a
	// gather-compute-scatter chain.
	for _, s := range []uint32{0, 1, 2, 3, 4, 8, 16, 19, 32, 48, 1 << 16, 19 << 10} {
		f.Add(append(seedCmd(0, 64, s, 31), seedCmd(1, 96, s, 31)...))
	}
	f.Add(append(append(seedCmd(0, 0, 19, 31), seedCmd(3, 1<<20, 4, 15)...), seedCmd(0, 1<<20, 4, 15)...))
	f.Add(append(seedCmd(1, 128, 0, 31), seedCmd(0, 128, 0, 7)...))
	// Indexed commands: a lone indexed read, an indexed read feeding an
	// indexed dataflow write, and a strided read feeding an indexed write
	// over the same region as a follow-up strided read.
	f.Add(seedCmd(4, 64, 19, 31))
	f.Add(append(seedCmd(4, 96, 7, 31), seedCmd(7, 96, 11, 31)...))
	f.Add(append(append(seedCmd(0, 128, 1, 31), seedCmd(7, 1<<20, 3, 15)...), seedCmd(0, 1<<20, 1, 31)...))
}

// checkAgainstReference runs the trace on sys and the functional
// reference and compares every gathered line and the final image at
// every touched address.
func checkAgainstReference(t *testing.T, sys System, tr Trace) {
	t.Helper()
	ref := Reference()
	want, err := ref.Run(tr)
	if err != nil {
		t.Skip() // structurally invalid trace; nothing to differentiate
	}
	got, err := sys.Run(tr)
	if err != nil {
		t.Fatalf("%s rejected a trace the reference accepts: %v", sys.Name(), err)
	}
	for i, c := range tr.Cmds {
		if c.Op != Read {
			continue
		}
		for j := range want.ReadData[i] {
			if got.ReadData[i][j] != want.ReadData[i][j] {
				t.Fatalf("%s: cmd %d word %d = %#x, reference %#x",
					sys.Name(), i, j, got.ReadData[i][j], want.ReadData[i][j])
			}
		}
	}
	for _, c := range tr.Cmds {
		for i := uint32(0); i < c.V.Length; i++ {
			a := c.Addr(i)
			if g, w := sys.Peek(a), ref.Peek(a); g != w {
				t.Fatalf("%s: final image at %d = %#x, reference %#x", sys.Name(), a, g, w)
			}
		}
	}
}

// FuzzDifferentialPVA checks the PVA systems against the reference on
// random traces, across every device back end — plain SDRAM, the SRAM
// comparison system, 4-subarray SALP, and 4-partition PCM — and on
// multi-channel machines under the line, xor and word decoders. The
// multi-channel machines run under a watchdog, so a deadlock fails the
// run instead of spinning.
func FuzzDifferentialPVA(f *testing.F) {
	fuzzSeeds(f)
	multi := func(channels uint32, addrMap string) Config {
		c := DefaultConfig()
		c.Channels = channels
		c.AddrMap = addrMap
		c.WatchdogCycles = 100_000
		return c
	}
	salp := DefaultConfig()
	salp.Tech = "salp"
	salp.SubarraysPerBank = 4
	pcm := DefaultConfig()
	pcm.Tech = "pcm"
	pcm.Partitions = 4
	configs := []Config{DefaultConfig(), salp, pcm, multi(2, "line"), multi(4, "xor"), multi(4, "word")}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, ok := parseFuzzTrace(data, true)
		if !ok {
			t.Skip()
		}
		sramSys, err := NewSRAMSystem(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, sramSys, tr)
		for _, cfg := range configs {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, sys, tr)
		}
	})
}

// FuzzDifferentialBaselines checks both serial baselines against the
// reference on random traces over the full 32-bit address space, and
// cross-checks the cache-line system's LineFills statistic against an
// enumerated line count.
func FuzzDifferentialBaselines(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, ok := parseFuzzTrace(data, false)
		if !ok {
			t.Skip()
		}
		cl := NewCacheLineSerial()
		checkAgainstReference(t, cl, tr)
		checkAgainstReference(t, NewGatheringSerial(), tr)

		var wantFills uint64
		for _, c := range tr.Cmds {
			seen := make(map[uint32]struct{})
			for i := uint32(0); i < c.V.Length; i++ {
				seen[c.Addr(i)/32] = struct{}{}
			}
			wantFills += uint64(len(seen))
		}
		res, err := cl.Run(tr) // rerun: timing stats are image-independent
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.LineFills != wantFills {
			t.Fatalf("cacheline LineFills = %d, enumeration says %d", res.Stats.LineFills, wantFills)
		}
	})
}

// FuzzTunedDecoder drives random traces through PVA systems under
// fuzzer-chosen tuned decoder masks, across the SDRAM, 4-subarray SALP
// and 4-partition PCM back ends. The decoder permutes where words live
// physically but must never change what a trace reads or leaves in
// memory; any mask set the parser accepts has to be a bijection, and
// this is where that property meets the full machine. The first 16
// bytes of the input are the four bank-bit masks, the rest the usual
// command records.
func FuzzTunedDecoder(f *testing.F) {
	seed := func(m0, m1, m2, m3 uint32, trace []byte) []byte {
		pre := make([]byte, 16)
		binary.LittleEndian.PutUint32(pre[0:4], m0)
		binary.LittleEndian.PutUint32(pre[4:8], m1)
		binary.LittleEndian.PutUint32(pre[8:12], m2)
		binary.LittleEndian.PutUint32(pre[12:16], m3)
		return append(pre, trace...)
	}
	// Zero masks (the word interleave), the xor fold, a dense random
	// hash, and masks full of dead bits the parser must clear.
	f.Add(seed(0, 0, 0, 0, append(seedCmd(0, 64, 19, 31), seedCmd(1, 96, 19, 31)...)))
	f.Add(seed(0x1111111, 0x2222222, 0x4444444, 0x8888888, seedCmd(4, 64, 7, 31)))
	f.Add(seed(0x9, 0x12, 0x24, 0x3, append(seedCmd(0, 0, 1, 31), seedCmd(3, 1<<20, 4, 15)...)))
	f.Add(seed(0xffffffff, 0x80000001, 0xcafebabe, 0x12345678, seedCmd(0, 128, 4, 31)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 16+fuzzCmdBytes {
			t.Skip()
		}
		spec := fmt.Sprintf("tuned:%#x,%#x,%#x,%#x",
			binary.LittleEndian.Uint32(data[0:4]),
			binary.LittleEndian.Uint32(data[4:8]),
			binary.LittleEndian.Uint32(data[8:12]),
			binary.LittleEndian.Uint32(data[12:16]))
		tr, ok := parseFuzzTrace(data[16:], true)
		if !ok {
			t.Skip()
		}
		sdram := DefaultConfig()
		sdram.AddrMap = spec
		salp := sdram
		salp.Tech = "salp"
		salp.SubarraysPerBank = 4
		pcm := sdram
		pcm.Tech = "pcm"
		pcm.Partitions = 4
		for _, cfg := range []Config{sdram, salp, pcm} {
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, sys, tr)
		}
	})
}
