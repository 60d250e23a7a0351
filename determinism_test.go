package pva

import (
	"fmt"
	"testing"
)

// systemsUnderTest builds one fresh instance of every cycle-level
// system, including a hot-row-predictor PVA whose bank controllers
// train a row history on every access.
func systemsUnderTest(t *testing.T) map[string]System {
	t.Helper()
	hot := DefaultConfig()
	hot.RowPolicy = "hotrow"
	pvaSys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sramSys, err := NewSRAMSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hotSys, err := NewSystem(hot)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]System{
		"pva-sdram":        pvaSys,
		"pva-sram":         sramSys,
		"pva-hotrow":       hotSys,
		"cacheline-serial": NewCacheLineSerial(),
		"gathering-serial": NewGatheringSerial(),
	}
}

// TestReusedSystemDeterminism runs the same trace twice on one System
// instance. Memory contents legitimately carry over between runs, but
// timing must not: cycle counts and statistics depend only on the
// address pattern, so any drift means run-scoped state (the hot-row
// predictor's history, scheduler timers) leaked across Run calls.
func TestReusedSystemDeterminism(t *testing.T) {
	k, err := KernelByName("vaxpy")
	if err != nil {
		t.Fatal(err)
	}
	p := PaperParams(19, 3)
	p.Elements = 512
	trace := k.Build(p)
	for name, sys := range systemsUnderTest(t) {
		first, err := sys.Run(trace)
		if err != nil {
			t.Fatalf("%s run 1: %v", name, err)
		}
		second, err := sys.Run(trace)
		if err != nil {
			t.Fatalf("%s run 2: %v", name, err)
		}
		if first.Cycles != second.Cycles {
			t.Errorf("%s: reused system timed %d cycles then %d", name, first.Cycles, second.Cycles)
		}
		if first.Stats != second.Stats {
			t.Errorf("%s: reused system stats drifted\nrun 1: %+v\nrun 2: %+v", name, first.Stats, second.Stats)
		}
	}
}

// shapeTraces returns traces of deliberately different shapes — command
// counts, strides, element counts, kernel dataflow, and a hand-rolled
// preset-write mix — to exercise the session-reuse path's pools and
// capacity-preserving resets across regrowth boundaries.
func shapeTraces(t *testing.T) []Trace {
	t.Helper()
	var shapes []Trace
	for _, tc := range []struct {
		kernel string
		stride uint32
		elems  uint32
	}{
		{"vaxpy", 19, 96},
		{"copy", 1, 256},
		{"vaxpy", 4, 64},
	} {
		k, err := KernelByName(tc.kernel)
		if err != nil {
			t.Fatal(err)
		}
		p := PaperParams(tc.stride, 2)
		p.Elements = tc.elems
		shapes = append(shapes, k.Build(p))
	}
	data := make([]uint32, 32)
	for i := range data {
		data[i] = 0x5eed0000 + uint32(i)
	}
	shapes = append(shapes, Trace{Cmds: []VectorCmd{
		{Op: Write, V: Vector{Base: 64, Stride: 4, Length: 32}, Data: data},
		{Op: Read, V: Vector{Base: 65, Stride: 7, Length: 17}},
		{Op: Read, V: Vector{Base: 64, Stride: 4, Length: 32}, DependsOn: []int{0}},
		{Op: Write, V: Vector{Base: 3, Stride: 33, Length: 8}, Data: data[:8]},
		{Op: Read, V: Vector{Base: 3, Stride: 33, Length: 8}, DependsOn: []int{3}},
	}})
	return shapes
}

// TestInterleavedShapesReuseBitIdentical is the reuse metamorphic check
// at full strength: one System runs differently-shaped traces
// back-to-back, and after each run the result — cycle count, statistics,
// and every gathered data word — must be bit-identical to a fresh
// System replaying the same trace prefix (the store legitimately carries
// memory contents across runs, so the fresh System replays the prefix to
// reach the same memory state). Any divergence means the pooled buffers,
// hardware resets, or the session clock's rewind leaked state between
// runs.
func TestInterleavedShapesReuseBitIdentical(t *testing.T) {
	hot := DefaultConfig()
	hot.RowPolicy = "hotrow"
	faulty := DefaultConfig()
	faulty.FaultPlan = FaultPlan{Seed: 11, BitFlipRate: 0.01, DropRate: 0.02}
	configs := map[string]Config{
		"default": DefaultConfig(),
		"hotrow":  hot,
		"faulty":  faulty,
	}
	shapes := shapeTraces(t)
	for name, cfg := range configs {
		reused, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range shapes {
			got, err := reused.Run(shapes[i])
			if err != nil {
				t.Fatalf("%s: reused run %d: %v", name, i, err)
			}
			fresh, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want Result
			for j := 0; j <= i; j++ {
				if want, err = fresh.Run(shapes[j]); err != nil {
					t.Fatalf("%s: fresh replay %d of prefix %d: %v", name, j, i, err)
				}
			}
			if got.Cycles != want.Cycles {
				t.Errorf("%s run %d: reused %d cycles, fresh %d", name, i, got.Cycles, want.Cycles)
			}
			if got.Stats != want.Stats {
				t.Errorf("%s run %d: stats diverged\nreused: %+v\nfresh:  %+v", name, i, got.Stats, want.Stats)
			}
			if len(got.ReadData) != len(want.ReadData) {
				t.Fatalf("%s run %d: %d read lines, fresh %d", name, i, len(got.ReadData), len(want.ReadData))
			}
			for c := range got.ReadData {
				g, w := got.ReadData[c], want.ReadData[c]
				if len(g) != len(w) {
					t.Fatalf("%s run %d cmd %d: %d words, fresh %d", name, i, c, len(g), len(w))
				}
				for e := range g {
					if g[e] != w[e] {
						t.Fatalf("%s run %d cmd %d word %d: %#x, fresh %#x", name, i, c, e, g[e], w[e])
					}
				}
			}
		}
	}
}

// translate returns the trace with every vector base shifted by off
// words. Dataflow (DependsOn, Compute) is untouched.
func translate(tr Trace, off uint32) Trace {
	out := Trace{Cmds: make([]VectorCmd, len(tr.Cmds))}
	copy(out.Cmds, tr.Cmds)
	for i := range out.Cmds {
		out.Cmds[i].V.Base += off
	}
	return out
}

// TestTranslationInvariance is the metamorphic check of the address
// decomposition: translating every vector by a whole number of
// periodicity units must leave cycle counts unchanged. For the serial
// baselines the unit is one cache line; for the PVA systems it is
// Banks*RowWords*InternalBanks words — one full row across the whole
// array, which shifts every decomposed row index uniformly by one.
func TestTranslationInvariance(t *testing.T) {
	cfg := DefaultConfig()
	pvaUnit := cfg.Banks * cfg.RowWords * cfg.InternalBanks
	lineUnit := cfg.LineWords
	cases := []struct {
		mk   func() (System, error)
		unit uint32
	}{
		{func() (System, error) { return NewSystem(cfg) }, pvaUnit},
		{func() (System, error) { return NewSRAMSystem(cfg) }, pvaUnit},
		{func() (System, error) { return NewCacheLineSerial(), nil }, lineUnit},
		{func() (System, error) { return NewGatheringSerial(), nil }, lineUnit},
	}
	k, err := KernelByName("copy")
	if err != nil {
		t.Fatal(err)
	}
	for _, stride := range []uint32{1, 4, 19} {
		p := PaperParams(stride, 2)
		p.Elements = 256
		trace := k.Build(p)
		for _, c := range cases {
			for _, mult := range []uint32{1, 3} {
				base, err := c.mk()
				if err != nil {
					t.Fatal(err)
				}
				moved, err := c.mk()
				if err != nil {
					t.Fatal(err)
				}
				want, err := base.Run(trace)
				if err != nil {
					t.Fatal(err)
				}
				got, err := moved.Run(translate(trace, mult*c.unit))
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s stride %d +%d words", base.Name(), stride, mult*c.unit)
				if got.Cycles != want.Cycles {
					t.Errorf("%s: %d cycles, untranslated %d", name, got.Cycles, want.Cycles)
				}
			}
		}
	}
}
