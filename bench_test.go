// Benchmarks regenerating the paper's evaluation, one benchmark family
// per table or figure. Every sub-benchmark runs a full-size workload
// (1024-element vectors, as in Section 6.2) and reports the simulated
// execution time as the "cycles" metric — the number each figure plots.
// cmd/sweep renders the complete figures (all five alignments, min/max
// bands); the benches pin alignment for stable, comparable numbers:
// alignment 1 (bank-spread), the most representative placement.
//
// Shape expectations (checked in EXPERIMENTS.md):
//   - Fig 7/8: PVA flat in stride except 8/16; cache-line serial grows
//     linearly with lines touched; gathering serial constant.
//   - Fig 9/10: at stride 1 all systems close; by stride 19 cache-line
//     serial is ~20x the PVA.
//   - Fig 11: PVA SDRAM within ~10% of PVA SRAM everywhere.
//   - Table 1: complexity accounting, constant.
package pva

import (
	"fmt"
	"testing"
)

// benchCell runs one (system, kernel, stride) cell per iteration and
// reports the simulated cycles.
func benchCell(b *testing.B, kind SystemKind, kernel string, stride uint32, align int) {
	b.Helper()
	b.ReportAllocs()
	p := PaperParams(stride, align)
	var cycles uint64
	for i := 0; i < b.N; i++ {
		pt, err := RunKernel(kind, kernel, p)
		if err != nil {
			b.Fatal(err)
		}
		cycles = pt.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

var allSystems = []SystemKind{PVASDRAM, CacheLineSerial, GatheringSerial, PVASRAM}

func benchFigure(b *testing.B, kernels []string, strides []uint32) {
	for _, k := range kernels {
		for _, s := range strides {
			for _, sys := range allSystems {
				b.Run(fmt.Sprintf("%s/stride%d/%s", k, s, sys), func(b *testing.B) {
					benchCell(b, sys, k, s, 1)
				})
			}
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: copy, saxpy and scale across
// strides 1..19 on all four memory systems.
func BenchmarkFig7(b *testing.B) {
	benchFigure(b, []string{"copy", "saxpy", "scale"}, PaperStrides())
}

// BenchmarkFig8 regenerates Figure 8: swap, tridiag, vaxpy and the
// unrolled copy2/scale2 across strides on all four systems.
func BenchmarkFig8(b *testing.B) {
	benchFigure(b, []string{"swap", "tridiag", "vaxpy", "copy2", "scale2"}, PaperStrides())
}

// BenchmarkFig9 regenerates Figure 9: every kernel at the fixed strides
// 1 and 4 (the panel normalizes each row to the PVA's time).
func BenchmarkFig9(b *testing.B) {
	var names []string
	for _, k := range Kernels() {
		names = append(names, k.Name)
	}
	benchFigure(b, names, []uint32{1, 4})
}

// BenchmarkFig10 regenerates Figure 10: every kernel at strides 8, 16
// and 19.
func BenchmarkFig10(b *testing.B) {
	var names []string
	for _, k := range Kernels() {
		names = append(names, k.Name)
	}
	benchFigure(b, names, []uint32{8, 16, 19})
}

// BenchmarkFig11Vaxpy regenerates Figure 11: the vaxpy kernel on PVA
// SDRAM and PVA SRAM across every stride and relative alignment,
// exposing how well the scheduler hides SDRAM overheads.
func BenchmarkFig11Vaxpy(b *testing.B) {
	for _, s := range PaperStrides() {
		for a := 0; a < AlignmentCount; a++ {
			for _, sys := range []SystemKind{PVASDRAM, PVASRAM} {
				b.Run(fmt.Sprintf("stride%d/%s/%s", s, AlignmentName(a), sys), func(b *testing.B) {
					benchCell(b, sys, "vaxpy", s, a)
				})
			}
		}
	}
}

// BenchmarkTable1Complexity regenerates the Table 1 substitute: the
// structural hardware account of one bank controller.
func BenchmarkTable1Complexity(b *testing.B) {
	b.ReportAllocs()
	var ram int
	for i := 0; i < b.N; i++ {
		est, err := Complexity(PaperComplexityParams())
		if err != nil {
			b.Fatal(err)
		}
		ram = est.StagingRAMBytes
	}
	b.ReportMetric(float64(ram), "staging-bytes")
}

// BenchmarkHeadlineRatios computes the abstract's summary numbers (up
// to 32.8x vs a conventional system, 3.3x vs pipelined gathering) from
// a reduced sweep each iteration.
func BenchmarkHeadlineRatios(b *testing.B) {
	b.ReportAllocs()
	var best float64
	for i := 0; i < b.N; i++ {
		points, err := Sweep([]string{"copy", "swap"}, []uint32{1, 16, 19}, nil, false)
		if err != nil {
			b.Fatal(err)
		}
		// Largest cacheline/pva ratio over the sweep.
		pvaMin := map[[2]uint64]uint64{}
		for _, p := range points {
			if p.System == PVASDRAM {
				k := [2]uint64{hashName(p.Kernel), uint64(p.Stride)}
				if v, ok := pvaMin[k]; !ok || p.Cycles < v {
					pvaMin[k] = p.Cycles
				}
			}
		}
		for _, p := range points {
			if p.System != CacheLineSerial {
				continue
			}
			k := [2]uint64{hashName(p.Kernel), uint64(p.Stride)}
			if r := float64(p.Cycles) / float64(pvaMin[k]); r > best {
				best = r
			}
		}
	}
	b.ReportMetric(best, "max-speedup")
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// BenchmarkAblationRowPolicy compares the paper's ManageRow heuristic
// against closed-page, open-page and the Alpha 21174-style hot-row
// predictor on a row-locality-heavy workload (DESIGN.md ablation).
func BenchmarkAblationRowPolicy(b *testing.B) {
	for _, rp := range []string{"manage-row", "closed-page", "open-page", "hotrow"} {
		b.Run(rp, func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(Config{RowPolicy: rp})
				if err != nil {
					b.Fatal(err)
				}
				k, _ := KernelByName("saxpy")
				res, err := sys.Run(k.Build(PaperParams(16, 4))) // single-bank, row-conflicting
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationSchedPolicy compares the paper's SPU heuristic with
// FCFS arbitration.
func BenchmarkAblationSchedPolicy(b *testing.B) {
	for _, pol := range []string{"paper", "fcfs"} {
		b.Run(pol, func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(Config{Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				k, _ := KernelByName("vaxpy")
				res, err := sys.Run(k.Build(PaperParams(8, 0)))
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationVCWindow varies the number of vector contexts per
// bank controller (the paper builds four).
func BenchmarkAblationVCWindow(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("vcs%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(Config{VCWindow: w})
				if err != nil {
					b.Fatal(err)
				}
				k, _ := KernelByName("swap")
				res, err := sys.Run(k.Build(PaperParams(4, 1)))
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkSweepSerial runs the full evaluation sweep (960 points) on
// the single-threaded engine. Compare with BenchmarkSweepParallel for
// the worker-pool speedup on multi-core machines (this is the pair the
// parallel engine exists for; on one core they coincide).
func BenchmarkSweepSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SweepWithOptions(Grid{}, SweepOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel is the same sweep on the worker pool (one
// goroutine per CPU).
func BenchmarkSweepParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SweepWithOptions(Grid{}, SweepOptions{Workers: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStrictTickLoop measures the simulator without event-driven
// idle skipping — the denominator of the skip machinery's win.
func BenchmarkStrictTickLoop(b *testing.B) {
	b.ReportAllocs()
	cfg := DefaultConfig()
	cfg.DisableIdleSkip = true
	k, err := KernelByName("vaxpy")
	if err != nil {
		b.Fatal(err)
	}
	trace := k.Build(PaperParams(19, 1))
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkippingTickLoop is BenchmarkStrictTickLoop with the default
// event-driven idle skip.
func BenchmarkSkippingTickLoop(b *testing.B) {
	b.ReportAllocs()
	k, err := KernelByName("vaxpy")
	if err != nil {
		b.Fatal(err)
	}
	trace := k.Build(PaperParams(19, 1))
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateRun is the pooled hot path the zero-allocation
// pin (TestSteadyStateZeroAlloc) guards: one System reused across
// iterations, so every run after the first recycles command state, line
// buffers, FIFO entries and device pipe slots from the free lists. The
// trace is the pin's read/preset-write mix (Compute closures allocate
// by design), so allocs/op must read 0.
func BenchmarkSteadyStateRun(b *testing.B) {
	b.ReportAllocs()
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	trace := steadyTrace()
	if _, err := sys.Run(trace); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGather runs the indexed gather kernel on a reused System —
// the steady-state cost of the indexed claim/broadcast path (per-bank
// index claims, index-list bus cycles, enumerated staging), tracked by
// the benchstat gate alongside the strided hot paths.
func BenchmarkGather(b *testing.B) { benchGather(b, DefaultConfig()) }

// BenchmarkGatherXOR4ch is BenchmarkGather on four channels under the
// xor decoder with 4-partition PCM, the indexed-4ch-pcm benchmark
// configuration. Every command there is pre-claimed by the channel
// dispatcher, so this tracks the cost of the per-element decode and the
// per-transaction claim lists, which the 1-channel word configuration
// of BenchmarkGather reaches only for its indexed commands.
func BenchmarkGatherXOR4ch(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Channels, cfg.AddrMap, cfg.Tech, cfg.Partitions = 4, "xor", "pcm", 4
	benchGather(b, cfg)
}

// benchGather times warm Runs of the gather kernel on one System built
// from cfg.
func benchGather(b *testing.B, cfg Config) {
	b.ReportAllocs()
	k, err := KernelByName("gather")
	if err != nil {
		b.Fatal(err)
	}
	trace := k.Build(PaperParams(4, 1))
	sys, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Run(trace); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := sys.Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkFourChannelTickLoop measures the session's cycle loop on a
// four-channel machine (vaxpy, stride 19), one reused System so the
// steady-state path (and its zero-allocation guarantee) is what's
// timed.
func BenchmarkFourChannelTickLoop(b *testing.B) {
	k, err := KernelByName("vaxpy")
	if err != nil {
		b.Fatal(err)
	}
	trace := k.Build(PaperParams(19, 1))
	b.ReportAllocs()
	cfg := DefaultConfig()
	cfg.Channels = 4
	sys, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Run(trace); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepVerified is the full 960-point single-worker sweep with
// every cell checked against the functional reference — the pass the
// paper-grid benchmark workload times. It adds to BenchmarkSweepSerial
// the reference run and image comparison of each trace group;
// allocs/op is the sweep's total footprint and is what the benchstat
// gate tracks.
func BenchmarkSweepVerified(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SweepWithOptions(Grid{}, SweepOptions{Workers: 1, Verify: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutotuneSearch is the decoder-search ladder. ladder/pooled
// is the default two-rung search on one small fixed budget, with
// survivor evaluations fanned out over GOMAXPROCS goroutines;
// ladder/serial is the same search on one goroutine (the
// candidate-evaluation scaling). Full simulations dominate both.
// paper-swap is the default-budget search for swap at the paper
// strides on 1024-element vectors, where the surrogate climbs dominate.
// The benchstat gate tracks ladder/pooled and paper-swap.
func BenchmarkAutotuneSearch(b *testing.B) {
	base := AutotuneOptions{Seed: 1, Restarts: 2, MaskBits: 8}
	serial := base
	serial.Workers = 1
	ladder := []uint32{1, 19}
	for _, c := range []struct {
		name     string
		kernel   string
		strides  []uint32
		elements uint32
		o        AutotuneOptions
	}{
		{"ladder/pooled", "copy", ladder, 64, base},
		{"ladder/serial", "copy", ladder, 64, serial},
		{"paper-swap", "swap", nil, 1024, AutotuneOptions{Seed: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AutotuneKernel(c.kernel, c.strides, c.elements, c.o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
