package pvaunit

import (
	"math/rand"
	"strings"
	"testing"

	"pva/internal/core"
	"pva/internal/memsys"
)

// runBoth executes the trace on a PVA system and on the functional
// reference, checking that the gathered read data agree and that the
// final memory images agree on every address the trace touches.
func runBoth(t *testing.T, cfg Config, trace memsys.Trace) (memsys.Result, memsys.Result) {
	t.Helper()
	sys := MustNew(cfg)
	got, err := sys.Run(trace)
	if err != nil {
		t.Fatalf("%s run: %v", sys.Name(), err)
	}
	ref := memsys.NewReference()
	want, err := ref.Run(trace)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for i := range trace.Cmds {
		if trace.Cmds[i].Op != memsys.Read {
			continue
		}
		g, w := got.ReadData[i], want.ReadData[i]
		if len(g) != len(w) {
			t.Fatalf("cmd %d: gathered %d words, want %d", i, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("cmd %d word %d: got %#x, want %#x (addr %d)",
					i, j, g[j], w[j], trace.Cmds[i].V.Addr(uint32(j)))
			}
		}
	}
	for _, c := range trace.Cmds {
		for i := uint32(0); i < c.V.Length; i++ {
			a := c.V.Addr(i)
			if g, w := sys.Peek(a), ref.Peek(a); g != w {
				t.Fatalf("memory image mismatch at %d: got %#x, want %#x", a, g, w)
			}
		}
	}
	return got, want
}

func readCmd(base, stride, length uint32) memsys.VectorCmd {
	return memsys.VectorCmd{Op: memsys.Read, V: core.Vector{Base: base, Stride: stride, Length: length}}
}

func writeCmd(base, stride, length uint32, data []uint32) memsys.VectorCmd {
	return memsys.VectorCmd{Op: memsys.Write, V: core.Vector{Base: base, Stride: stride, Length: length}, Data: data}
}

func TestSingleUnitStrideRead(t *testing.T) {
	res, _ := runBoth(t, PaperConfig(), memsys.Trace{Cmds: []memsys.VectorCmd{
		readCmd(0, 1, 32),
	}})
	// Broadcast(1) + parallel SDRAM (ACT 2 + CAS 2 + 2 elements) +
	// STAGE_READ(1) + turnaround + 16 data cycles: should land in the
	// low twenties, far below a 20-cycle-per-line serial system's cost
	// for the same data... and certainly above the bare 16 data cycles.
	if res.Cycles < 16 || res.Cycles > 40 {
		t.Errorf("unit-stride read took %d cycles, expected ~25", res.Cycles)
	}
	t.Logf("single unit-stride read: %d cycles", res.Cycles)
}

func TestSingleReadAllStrides(t *testing.T) {
	for _, stride := range []uint32{1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 19, 31, 32, 33, 64} {
		res, _ := runBoth(t, PaperConfig(), memsys.Trace{Cmds: []memsys.VectorCmd{
			readCmd(64, stride, 32),
		}})
		t.Logf("stride %2d: %d cycles", stride, res.Cycles)
	}
}

func TestSingleWriteAllStrides(t *testing.T) {
	data := make([]uint32, 32)
	for i := range data {
		data[i] = 0xa5a50000 + uint32(i)
	}
	for _, stride := range []uint32{1, 2, 5, 8, 16, 19} {
		runBoth(t, PaperConfig(), memsys.Trace{Cmds: []memsys.VectorCmd{
			writeCmd(128, stride, 32, data),
		}})
	}
}

func TestReadAfterWriteSameAddresses(t *testing.T) {
	data := make([]uint32, 32)
	for i := range data {
		data[i] = 0xbeef0000 + uint32(i)
	}
	trace := memsys.Trace{Cmds: []memsys.VectorCmd{
		writeCmd(512, 19, 32, data),
		readCmd(512, 19, 32),
	}}
	res, _ := runBoth(t, PaperConfig(), trace)
	if res.ReadData[1][7] != 0xbeef0007 {
		t.Fatalf("read-after-write returned %#x", res.ReadData[1][7])
	}
}

func TestWriteAfterReadSameAddresses(t *testing.T) {
	// The read must gather the ORIGINAL data even though a write to the
	// same addresses follows immediately (the polarity rule and the
	// front-end conflict guard forbid the write overtaking it).
	data := make([]uint32, 32)
	for i := range data {
		data[i] = 0xdead0000 + uint32(i)
	}
	trace := memsys.Trace{Cmds: []memsys.VectorCmd{
		readCmd(2048, 4, 32),
		writeCmd(2048, 4, 32, data),
	}}
	res, _ := runBoth(t, PaperConfig(), trace)
	for j := range res.ReadData[0] {
		want := memsys.Fill(2048 + uint32(j)*4)
		if res.ReadData[0][j] != want {
			t.Fatalf("read word %d got %#x, want original %#x", j, res.ReadData[0][j], want)
		}
	}
}

func TestDependentChain(t *testing.T) {
	// y = x (copy one line) via Compute: the write's data is the read's.
	trace := memsys.Trace{Cmds: []memsys.VectorCmd{
		readCmd(0, 3, 32),
		{
			Op:        memsys.Write,
			V:         core.Vector{Base: 1 << 16, Stride: 3, Length: 32},
			DependsOn: []int{0},
			Compute:   func(deps [][]uint32) []uint32 { return deps[0] },
		},
	}}
	sys := MustNew(PaperConfig())
	if _, err := sys.Run(trace); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 32; i++ {
		src, dst := uint32(0)+i*3, uint32(1<<16)+i*3
		if got, want := sys.Peek(dst), memsys.Fill(src); got != want {
			t.Fatalf("copied element %d: got %#x, want %#x", i, got, want)
		}
	}
}

func TestManyOutstandingReads(t *testing.T) {
	var cmds []memsys.VectorCmd
	for k := uint32(0); k < 24; k++ {
		cmds = append(cmds, readCmd(k*1024, 7, 32))
	}
	res, _ := runBoth(t, PaperConfig(), memsys.Trace{Cmds: cmds})
	// The bus supports eight outstanding transactions; throughput should
	// approach one line per ~18 bus cycles, so 24 lines well under 24
	// serialized round trips (~24*30).
	if res.Cycles > 24*30 {
		t.Errorf("24 pipelined reads took %d cycles; pipelining appears broken", res.Cycles)
	}
	t.Logf("24 pipelined stride-7 reads: %d cycles (%.1f/line)", res.Cycles, float64(res.Cycles)/24)
}

func TestInterleavedReadWriteStream(t *testing.T) {
	// copy-like: R x_k, W y_k with dependencies, 8 iterations.
	var cmds []memsys.VectorCmd
	for k := uint32(0); k < 8; k++ {
		base := k * 32 * 2
		cmds = append(cmds, readCmd(base, 2, 32))
		cmds = append(cmds, memsys.VectorCmd{
			Op:        memsys.Write,
			V:         core.Vector{Base: 1<<18 + base, Stride: 2, Length: 32},
			DependsOn: []int{len(cmds) - 1},
			Compute:   func(deps [][]uint32) []uint32 { return deps[0] },
		})
	}
	runBoth(t, PaperConfig(), memsys.Trace{Cmds: cmds})
}

func TestRandomTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		var cmds []memsys.VectorCmd
		n := 3 + rng.Intn(10)
		for i := 0; i < n; i++ {
			stride := uint32(1 + rng.Intn(40))
			length := uint32(1 + rng.Intn(32))
			base := uint32(rng.Intn(1 << 20))
			if rng.Intn(2) == 0 {
				cmds = append(cmds, readCmd(base, stride, length))
			} else {
				data := make([]uint32, length)
				for j := range data {
					data[j] = rng.Uint32()
				}
				cmds = append(cmds, writeCmd(base, stride, length, data))
			}
		}
		runBoth(t, PaperConfig(), memsys.Trace{Cmds: cmds})
	}
}

func TestRandomTracesSRAM(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		var cmds []memsys.VectorCmd
		n := 2 + rng.Intn(8)
		for i := 0; i < n; i++ {
			stride := uint32(1 + rng.Intn(24))
			base := uint32(rng.Intn(1 << 19))
			if rng.Intn(2) == 0 {
				cmds = append(cmds, readCmd(base, stride, 32))
			} else {
				data := make([]uint32, 32)
				for j := range data {
					data[j] = rng.Uint32()
				}
				cmds = append(cmds, writeCmd(base, stride, 32, data))
			}
		}
		runBoth(t, SRAMConfig(), memsys.Trace{Cmds: cmds})
	}
}

func TestSRAMNeverSlowerThanSDRAM(t *testing.T) {
	for _, stride := range []uint32{1, 2, 4, 8, 16, 19} {
		trace := memsys.Trace{Cmds: []memsys.VectorCmd{
			readCmd(0, stride, 32), readCmd(4096, stride, 32), readCmd(8192, stride, 32),
		}}
		sdramSys := MustNew(PaperConfig())
		sramSys := MustNew(SRAMConfig())
		r1, err := sdramSys.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := sramSys.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		if r2.Cycles > r1.Cycles {
			t.Errorf("stride %d: SRAM (%d) slower than SDRAM (%d)", stride, r2.Cycles, r1.Cycles)
		}
		t.Logf("stride %2d: sdram %4d, sram %4d cycles", stride, r1.Cycles, r2.Cycles)
	}
}

func TestStride16SingleBankSerializes(t *testing.T) {
	// Stride 16 with M=16 puts all 32 elements in one bank; stride 19
	// spreads across all 16. The stride-19 read must be much faster.
	r16, _ := runBoth(t, PaperConfig(), memsys.Trace{Cmds: []memsys.VectorCmd{readCmd(0, 16, 32)}})
	r19, _ := runBoth(t, PaperConfig(), memsys.Trace{Cmds: []memsys.VectorCmd{readCmd(0, 19, 32)}})
	if r16.Cycles <= r19.Cycles {
		t.Errorf("stride16 %d cycles <= stride19 %d cycles; parallelism not modeled", r16.Cycles, r19.Cycles)
	}
	t.Logf("stride16: %d, stride19: %d", r16.Cycles, r19.Cycles)
}

func TestStats(t *testing.T) {
	sys := MustNew(PaperConfig())
	res, err := sys.Run(memsys.Trace{Cmds: []memsys.VectorCmd{readCmd(0, 1, 32)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SDRAMReads != 32 {
		t.Errorf("SDRAM reads = %d, want 32", res.Stats.SDRAMReads)
	}
	if res.Stats.Activates == 0 {
		t.Error("no activates recorded")
	}
	if res.Stats.BusBusyCycles == 0 {
		t.Error("no bus busy cycles recorded")
	}
}

func TestShortVectors(t *testing.T) {
	for _, length := range []uint32{1, 2, 3, 15, 31} {
		runBoth(t, PaperConfig(), memsys.Trace{Cmds: []memsys.VectorCmd{
			readCmd(96, 5, length),
		}})
	}
}

func TestZeroStride(t *testing.T) {
	// All 32 elements alias one address in one bank.
	res, _ := runBoth(t, PaperConfig(), memsys.Trace{Cmds: []memsys.VectorCmd{
		readCmd(1234, 0, 32),
	}})
	t.Logf("stride-0 read: %d cycles", res.Cycles)
}

func TestStrideMultipleOfBanks(t *testing.T) {
	// Stride 32: every element in the same bank, consecutive rows worth
	// of bankWords spaced 2 apart.
	runBoth(t, PaperConfig(), memsys.Trace{Cmds: []memsys.VectorCmd{
		readCmd(7, 32, 32),
	}})
}

func TestRowCrossingVector(t *testing.T) {
	// Large stride forces row changes within one bank's subvector:
	// stride 16*512 = one full row per element, all in bank 0,
	// alternating internal banks? bankWord step = 512 -> next internal
	// bank each element; after 4 elements, next row of ibank 0.
	runBoth(t, PaperConfig(), memsys.Trace{Cmds: []memsys.VectorCmd{
		readCmd(0, 16*512, 16),
	}})
}

func TestRowConflictBetweenCommands(t *testing.T) {
	// Two reads hitting the same internal banks with different rows force
	// precharge/activate interleaving.
	rowSpan := uint32(16 * 512 * 4) // one full row set away
	runBoth(t, PaperConfig(), memsys.Trace{Cmds: []memsys.VectorCmd{
		readCmd(0, 1, 32),
		readCmd(rowSpan*8, 1, 32),
		readCmd(0, 1, 32),
	}})
}

func TestValidationErrors(t *testing.T) {
	sys := MustNew(PaperConfig())
	if _, err := sys.Run(memsys.Trace{Cmds: []memsys.VectorCmd{
		{Op: memsys.Read, V: core.Vector{Base: 0, Stride: 1, Length: 0}},
	}}); err == nil {
		t.Error("zero-length command accepted")
	}
	if _, err := sys.Run(memsys.Trace{Cmds: []memsys.VectorCmd{
		{Op: memsys.Write, V: core.Vector{Base: 0, Stride: 1, Length: 4}, Data: []uint32{1}},
	}}); err == nil {
		t.Error("short write data accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := PaperConfig()
	cfg.Banks = 3
	if _, err := New(cfg); err == nil {
		t.Error("bank count 3 accepted")
	}
	cfg = PaperConfig()
	cfg.LineWords = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero line words accepted")
	}
}

func TestEmptyTrace(t *testing.T) {
	sys := MustNew(PaperConfig())
	res, err := sys.Run(memsys.Trace{})
	if err != nil || res.Cycles != 0 {
		t.Fatalf("empty trace: %v, %d cycles", err, res.Cycles)
	}
}

// TestNewRejectsUnrunnableLimits: the sweep harness and the autotuner
// build systems through New directly, so New runs the same limits check
// as pva.Config.Validate and names the field it rejects.
func TestNewRejectsUnrunnableLimits(t *testing.T) {
	for _, c := range []struct {
		edit  func(*Config)
		field string
	}{
		{func(c *Config) { c.VCWindow = -1 }, "VCWindow"},
		{func(c *Config) { c.Timing.RefreshInterval, c.Timing.TRFC = 5, 10 }, "RefreshInterval"},
	} {
		cfg := PaperConfig()
		c.edit(&cfg)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("New = %v, want an error naming %s", err, c.field)
		}
	}
}
