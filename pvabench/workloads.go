package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"pva"
	"pva/internal/autotune"
	"pva/internal/fault"
	"pva/internal/harness"
	"pva/internal/kernels"
	"pva/internal/memsys"
)

// watchdog is the forward-progress window, in simulated cycles, armed on
// every system the benchmark builds. It exceeds every completing
// PVA-SDRAM cell of both sweeps (at most 4527 cycles on paper-grid and
// 1782 on indexed-4ch-pcm), so charging a failed cell the window can
// never lower sim_cycles. The seed's deadlocking cells fail identically
// at ten times the window (TestKnownFailuresAtTenTimesWindow).
const watchdog = 10_000

// workers is the closed-loop client count of the parallel workloads and
// the process's GOMAXPROCS, fixed so that machines with more cores run
// the same configuration.
const workers = 2

// knownFailures are the cells that deadlock at the commit that defined
// the benchmark. A later change is judged against this list: a cell
// leaving it is a fix, a cell joining the failures is a regression.
var knownFailures = map[string][]string{
	"indexed-4ch-pcm": {
		"spmv stride 1 align 3 on pva-sdram",
		"spmv stride 1 align 4 on pva-sdram",
		"spmv stride 1 align 4 on pva-sram",
		"spmv stride 2 align 4 on pva-sdram",
		"spmv stride 2 align 4 on pva-sram",
	},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-grid", "indexed-4ch-pcm", "autotune-swap"}

// outcome is what the output checks make of one pass.
type outcome struct {
	attempted int
	// failed names the cells or searches that errored, deadlocked,
	// panicked or mismatched the reference.
	failed []string
	// wrong holds every failure that is not a watchdog deadlock: an
	// output the benchmark cannot vouch for.
	wrong []string
	// drifted counts cells whose cycles differ from the seed golden.
	drifted int
	// simCycles is the exact PVA-SDRAM cycle total; a failed cell is
	// charged the watchdog window.
	simCycles uint64
	// hostCycles is every simulated cycle the pass completed, the
	// denominator of host_ns_per_sim_cycle.
	hostCycles uint64
	// key fingerprints the exact results; equal inputs give equal keys.
	key string
}

// workload is one benchmark workload: a timed pass and its checks.
type workload interface {
	// pass runs timed pass i. An error is a fault of the benchmark's
	// own set-up, not of a cell.
	pass(i int) (any, error)
	// check verifies a pass's outputs; it is not timed.
	check(i int, out any) outcome
	// input names the input pass i runs, so passes with equal inputs
	// can be held to equal results.
	input(i int) int
	// replay runs the traced per-layer replay of pass i.
	replay(i int, rp *replayer) error
}

// sweep is a closed-loop grid of cells through the harness's isolated
// sweep: failing cells are quarantined, the rest of the grid completes.
type sweep struct {
	runner  harness.Runner
	kernels []string // nil: the paper's eight strided kernels
	workers int
	// golden maps a cell name to its seed cycles; nil where no golden
	// covers the workload.
	golden map[string]uint64
}

func cellName(kernel string, stride uint32, align int, sys harness.SystemKind) string {
	return fmt.Sprintf("%s stride %d align %d on %s", kernel, stride, align, sys)
}

func (s *sweep) pass(int) (any, error) {
	return s.runner.ResumableSweep(s.kernels, nil, nil, s.workers, harness.JournalConfig{})
}

func (s *sweep) input(int) int { return 0 }

func (s *sweep) check(_ int, v any) outcome {
	out := v.(*harness.Outcome)
	o := outcome{attempted: len(out.Points)}
	for i, p := range out.Points {
		if !out.Done[i] {
			continue
		}
		o.hostCycles += p.Cycles
		if p.System == harness.PVASDRAM {
			o.simCycles += p.Cycles
		}
		if s.golden != nil {
			if g, ok := s.golden[cellName(p.Kernel, p.Stride, p.Alignment, p.System)]; !ok || g != p.Cycles {
				o.drifted++
			}
		}
	}
	for _, f := range out.Failures {
		o.failed = append(o.failed, cellName(f.Kernel, f.Stride, f.Alignment, f.System))
		if f.System == harness.PVASDRAM {
			o.simCycles += watchdog
		}
		if !strings.Contains(f.Err, fault.ErrDeadlock.Error()) {
			o.wrong = append(o.wrong, f.String())
		}
	}
	o.key = fmt.Sprintf("%d %d %q", o.simCycles, o.drifted, o.failed)
	return o
}

// tune is one address-map search per pass. Pass i searches with seed
// seed+i, so a run's median host time spans many search seeds and does
// not hang on the one the run was given; pass 0 searches with the
// given seed itself and sets the run's exact metrics.
type tune struct {
	kernel   kernels.Kernel
	elements uint32
	w        autotune.Workload
	seed     uint64
}

type searchOut struct {
	res *pva.AutotuneResult
	err error
}

func (t *tune) options(i int) pva.AutotuneOptions {
	return pva.AutotuneOptions{Seed: t.seed + uint64(i), Workers: workers}
}

func (t *tune) pass(i int) (any, error) {
	res, err := pva.AutotuneTrace(t.w, t.options(i))
	return searchOut{res, err}, nil
}

func (t *tune) input(i int) int { return i }

func (t *tune) check(i int, v any) outcome {
	so := v.(searchOut)
	o := outcome{attempted: 1}
	name := fmt.Sprintf("%s search seed %d", t.w.Name, t.seed+uint64(i))
	fail := func(why string) outcome {
		o.failed = append(o.failed, name)
		o.wrong = append(o.wrong, name+": "+why)
		o.key = "failed " + why
		return o
	}
	if so.err != nil {
		return fail(so.err.Error())
	}
	res := so.res
	o.simCycles = res.Best.Cycles
	for _, c := range res.Survivors {
		o.hostCycles += c.Cycles
	}
	for _, c := range res.Baselines {
		o.hostCycles += c
	}
	o.key = fmt.Sprintf("%s %d %d %d", res.Best.Spec, res.Best.Cycles, res.SurrogateEvals, res.FullEvals)
	if fixed, best := res.BestFixed(); res.Best.Cycles > best {
		return fail(fmt.Sprintf("winner %s (%d cycles) loses to %s (%d)", res.Best.Spec, res.Best.Cycles, fixed, best))
	}
	total, err := t.reproduce(res.Best.Spec)
	if err != nil {
		return fail(err.Error())
	}
	if total != res.Best.Cycles {
		return fail(fmt.Sprintf("spec %s reproduces %d cycles, search reported %d", res.Best.Spec, total, res.Best.Cycles))
	}
	return o
}

// reproduce runs the workload under a decoder spec through the public
// Config.AddrMap path, each trace on a fresh system, and sums cycles.
func (t *tune) reproduce(spec string) (uint64, error) {
	var total uint64
	for _, tr := range t.w.Traces {
		sys, err := pva.NewSystem(pva.Config{AddrMap: spec, WatchdogCycles: watchdog})
		if err != nil {
			return 0, err
		}
		res, err := sys.Run(tr)
		if err != nil {
			return 0, err
		}
		total += res.Cycles
	}
	return total, nil
}

// newWorkload sets a workload up: everything its first pass needs.
// elements below the paper's 1024 shrink the vectors for smoke runs;
// the seed golden applies only at the paper's size.
func newWorkload(name string, seed uint64, elements uint32, goldenPath string) (workload, error) {
	switch name {
	case "paper-grid":
		s := &sweep{runner: harness.Runner{Elements: elements, Verify: true, Watchdog: watchdog}, workers: 1}
		if elements == 1024 {
			g, err := loadGolden(goldenPath)
			if err != nil {
				return nil, err
			}
			s.golden = g
		}
		return s, nil
	case "indexed-4ch-pcm":
		return &sweep{
			runner: harness.Runner{Elements: elements, Verify: true, Watchdog: watchdog,
				Channels: 4, AddrMap: "xor", Tech: "pcm", Partitions: 4},
			kernels: []string{"gather", "scatter", "spmv"},
			workers: workers,
		}, nil
	case "autotune-swap":
		k, err := kernels.ByName("swap")
		if err != nil {
			return nil, err
		}
		return &tune{kernel: k, elements: elements, seed: seed,
			w: autotune.KernelWorkload(k, harness.PaperStrides(), 0, elements)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames, ", "))
}

// loadGolden reads the repository's 960-cell seed golden.
func loadGolden(path string) (map[string]uint64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("seed golden: %w", err)
	}
	var rows []struct {
		Kernel string `json:"kernel"`
		Stride uint32 `json:"stride"`
		Align  int    `json:"align"`
		System string `json:"system"`
		Cycles uint64 `json:"cycles"`
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("seed golden %s: %w", path, err)
	}
	out := make(map[string]uint64, len(rows))
	for _, r := range rows {
		sys, err := harness.ParseSystemKind(r.System)
		if err != nil {
			return nil, fmt.Errorf("seed golden %s: %w", path, err)
		}
		out[cellName(r.Kernel, r.Stride, r.Align, sys)] = r.Cycles
	}
	return out, nil
}

// verify replays a trace on the functional reference and compares every
// gathered line and the final memory image, as the harness's Verify does.
func verify(sys memsys.System, tr memsys.Trace, res memsys.Result) error {
	ref := memsys.NewReference()
	want, err := ref.Run(tr)
	if err != nil {
		return err
	}
	for i, c := range tr.Cmds {
		if c.Op != memsys.Read {
			continue
		}
		for j, w := range want.ReadData[i] {
			if g := res.ReadData[i][j]; g != w {
				return fmt.Errorf("cmd %d word %d: got %#x, want %#x", i, j, g, w)
			}
		}
	}
	for _, c := range tr.Cmds {
		for i := uint32(0); i < c.V.Length; i++ {
			a := c.Addr(i)
			if g, w := sys.Peek(a), ref.Peek(a); g != w {
				return fmt.Errorf("final image at %d: got %#x, want %#x", a, g, w)
			}
		}
	}
	return nil
}
