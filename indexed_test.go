// Tests for the first-class indexed (vector-indirect) command kind:
// reference equivalence on every system, streaming/batch identity,
// clone independence, degraded-mode completion, the technology matrix,
// command validation, and the indexed kernels end to end.
package pva

import (
	"testing"

	"pva/internal/harness"
)

// fuzzIdx derives a deterministic bounded index list.
func fuzzIdx(seed, n uint32) []uint32 {
	out := make([]uint32, n)
	for j := range out {
		h := seed*2654435761 + uint32(j)*40503
		h ^= h >> 13
		out[j] = h % (1 << 16)
	}
	return out
}

// indexedMixTrace interleaves strided and indexed commands over
// overlapping regions, with dataflow writes of both kinds, so ordering
// between the two kinds is observable in the final image.
func indexedMixTrace() Trace {
	const table = 1 << 20
	return Trace{Cmds: []VectorCmd{
		{Op: Read, V: Vector{Base: 64, Stride: 19, Length: 32}},
		{Op: Read, V: Vector{Base: table, Stride: 0, Length: 32}, Idx: fuzzIdx(1, 32)},
		{
			Op: Write, V: Vector{Base: table, Stride: 0, Length: 32}, Idx: fuzzIdx(2, 32),
			DependsOn: []int{1},
			Compute: func(deps [][]uint32) []uint32 {
				out := make([]uint32, len(deps[0]))
				for i := range out {
					out[i] = deps[0][i] + 7
				}
				return out
			},
		},
		{Op: Write, V: Vector{Base: table, Stride: 512, Length: 32}, Data: fuzzIdx(3, 32)},
		{Op: Read, V: Vector{Base: table, Stride: 0, Length: 32}, Idx: fuzzIdx(2, 32)},
		{Op: Read, V: Vector{Base: table + 5, Stride: 3, Length: 32}},
	}}
}

// TestIndexedReferenceEquivalence runs the mixed strided/indexed trace
// on all four simulated systems and demands word-for-word agreement
// with the functional reference.
func TestIndexedReferenceEquivalence(t *testing.T) {
	tr := indexedMixTrace()
	sdram, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sram, err := NewSRAMSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, sdram, tr)
	checkAgainstReference(t, sram, tr)
	checkAgainstReference(t, NewCacheLineSerial(), tr)
	checkAgainstReference(t, NewGatheringSerial(), tr)
}

// TestIndexedStats pins the indexed counters: every indexed element is
// counted once, index lists cost (n+1)/2 bus cycles per command, and
// the per-broadcast max claim is within [elements/banks, elements].
func TestIndexedStats(t *testing.T) {
	tr := indexedMixTrace()
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	var wantElems, wantBus uint64
	var nIndexed uint64
	for _, c := range tr.Cmds {
		if c.Indexed() {
			wantElems += uint64(c.V.Length)
			wantBus += uint64(c.V.Length+1) / 2
			nIndexed++
		}
	}
	if res.Stats.IndexedElements != wantElems {
		t.Errorf("IndexedElements = %d, want %d", res.Stats.IndexedElements, wantElems)
	}
	if res.Stats.IndexBusCycles != wantBus {
		t.Errorf("IndexBusCycles = %d, want %d", res.Stats.IndexBusCycles, wantBus)
	}
	min := wantElems / 16 // perfectly balanced claim across 16 banks
	if res.Stats.IndexedMaxBankClaim < min || res.Stats.IndexedMaxBankClaim > wantElems {
		t.Errorf("IndexedMaxBankClaim = %d, want in [%d, %d]",
			res.Stats.IndexedMaxBankClaim, min, wantElems)
	}
	// A purely strided trace keeps all three counters at zero.
	k, err := KernelByName("vaxpy")
	if err != nil {
		t.Fatal(err)
	}
	strided, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sres, err := strided.Run(k.Build(PaperParams(19, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if sres.Stats.IndexedElements != 0 || sres.Stats.IndexBusCycles != 0 || sres.Stats.IndexedMaxBankClaim != 0 {
		t.Errorf("strided trace has indexed counters: %+v", sres.Stats)
	}
}

// TestIndexedStreamingEquivalence issues the mixed trace one command at
// a time through a Session and demands the batch Run's exact cycles,
// stats and data.
func TestIndexedStreamingEquivalence(t *testing.T) {
	tr := indexedMixTrace()
	for _, static := range []bool{false, true} {
		name := map[bool]string{false: "pva-sdram", true: "pva-sram"}[static]
		batch, err := streamSystem(t, static).Run(tr)
		if err != nil {
			t.Fatalf("%s batch: %v", name, err)
		}
		got, _, err := runSession(streamSystem(t, static), tr)
		if err != nil {
			t.Fatalf("%s session: %v", name, err)
		}
		if got.Cycles != batch.Cycles {
			t.Errorf("%s: session %d cycles, batch %d", name, got.Cycles, batch.Cycles)
		}
		if got.Stats != batch.Stats {
			t.Errorf("%s: stats diverge:\nbatch   %+v\nsession %+v", name, batch.Stats, got.Stats)
		}
		for i := range tr.Cmds {
			if batch.ReadData[i] == nil {
				continue
			}
			for j := range batch.ReadData[i] {
				if got.ReadData[i][j] != batch.ReadData[i][j] {
					t.Fatalf("%s: cmd %d word %d = %#x, batch %#x",
						name, i, j, got.ReadData[i][j], batch.ReadData[i][j])
				}
			}
		}
	}
}

// TestIndexedClone runs the mixed trace on a system and on its
// copy-on-write clone; both must agree with each other and the source
// must be unaffected by the clone's extra runs.
func TestIndexedClone(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cp := sys.(Snapshotter).Snapshot()
	clone, err := cp.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	tr := indexedMixTrace()
	want, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Diverge the clone first, then rewind it and replay: the replay
	// must be bit-identical to the source's run.
	if _, err := clone.Run(Trace{Cmds: []VectorCmd{
		{Op: Write, V: Vector{Base: 1 << 20, Stride: 0, Length: 8},
			Idx: fuzzIdx(9, 8), Data: fuzzIdx(10, 8)},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := clone.(Snapshotter).Restore(cp); err != nil {
		t.Fatal(err)
	}
	got, err := clone.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Stats != want.Stats {
		t.Errorf("clone replay diverges: %d/%d cycles", got.Cycles, want.Cycles)
	}
	for i := range tr.Cmds {
		if want.ReadData[i] == nil {
			continue
		}
		for j := range want.ReadData[i] {
			if got.ReadData[i][j] != want.ReadData[i][j] {
				t.Fatalf("cmd %d word %d = %#x, source %#x", i, j, got.ReadData[i][j], want.ReadData[i][j])
			}
		}
	}
}

// TestIndexedDegraded runs the mixed trace with two hard-faulted bank
// controllers: the serial fallback must service the dead banks' indexed
// elements and the data must still match the reference exactly.
func TestIndexedDegraded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FaultPlan = FaultPlan{DeadBanks: []uint32{3, 9}}
	cfg.WatchdogCycles = 1_000_000
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := indexedMixTrace()
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DegradedElements == 0 {
		t.Error("no degraded elements with two dead banks")
	}
	checkAgainstReference(t, sys, tr)
}

// TestIndexedTechMatrix checks the indexed kind across the device
// back-end matrix: plain SDRAM, 4-subarray SALP, and 4-partition PCM.
func TestIndexedTechMatrix(t *testing.T) {
	tr := indexedMixTrace()
	for _, tc := range []struct {
		name            string
		tech            string
		subarrays, part uint32
	}{
		{"sdram", "", 0, 0},
		{"salp-4", "salp", 4, 0},
		{"pcm-4", "pcm", 0, 4},
	} {
		cfg := DefaultConfig()
		cfg.Tech = tc.tech
		cfg.SubarraysPerBank = tc.subarrays
		cfg.Partitions = tc.part
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkAgainstReference(t, sys, tr)
	}
}

// TestIndexedValidate pins command validation: indexed commands must
// carry stride 0 and exactly Length indices.
func TestIndexedValidate(t *testing.T) {
	good := Trace{Cmds: []VectorCmd{
		{Op: Read, V: Vector{Base: 0, Stride: 0, Length: 4}, Idx: []uint32{5, 1, 9, 2}},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid indexed command rejected: %v", err)
	}
	strided := Trace{Cmds: []VectorCmd{
		{Op: Read, V: Vector{Base: 0, Stride: 2, Length: 4}, Idx: []uint32{5, 1, 9, 2}},
	}}
	if err := strided.Validate(); err == nil {
		t.Error("indexed command with nonzero stride accepted")
	}
	short := Trace{Cmds: []VectorCmd{
		{Op: Read, V: Vector{Base: 0, Stride: 0, Length: 4}, Idx: []uint32{5, 1}},
	}}
	if err := short.Validate(); err == nil {
		t.Error("indexed command with wrong index count accepted")
	}
}

// kernelOnAllSystems sweeps one kernel across all four systems at a few
// strides with reference verification on.
func kernelOnAllSystems(t *testing.T, name string) {
	t.Helper()
	k, err := KernelByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r := harness.Runner{Verify: true, Elements: 128}
	for _, stride := range []uint32{1, 19} {
		for _, kind := range harness.AllSystems() {
			pt, err := r.RunPoint(k, stride, 1, kind)
			if err != nil {
				t.Fatalf("%s stride %d on %s: %v", name, stride, kind, err)
			}
			if pt.Cycles == 0 {
				t.Errorf("%s stride %d on %s: zero cycles", name, stride, kind)
			}
			if kind == harness.PVASDRAM && pt.Stats.IndexedElements == 0 {
				t.Errorf("%s stride %d: no indexed elements on the PVA", name, stride)
			}
		}
	}
}

func TestGatherKernel(t *testing.T) { kernelOnAllSystems(t, "gather") }
func TestSpMVKernel(t *testing.T)   { kernelOnAllSystems(t, "spmv") }
func TestIndexedScatterKernel(t *testing.T) {
	kernelOnAllSystems(t, "scatter")
}

// TestGatherKernelTechMatrix runs the gather kernel with verification
// on the SALP and PCM back ends through the public sweep options.
func TestGatherKernelTechMatrix(t *testing.T) {
	p := PaperParams(4, 1)
	p.Elements = 128
	for _, tc := range []struct {
		name            string
		tech            string
		subarrays, part uint32
	}{
		{"salp-4", "salp", 4, 0},
		{"pcm-4", "pcm", 0, 4},
	} {
		pt, err := RunKernelWithOptions(PVASDRAM, "gather", p, SweepOptions{
			Verify: true, Tech: tc.tech, Subarrays: tc.subarrays, Partitions: tc.part,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if pt.Stats.IndexedElements == 0 {
			t.Errorf("%s: no indexed elements", tc.name)
		}
	}
}
