// PVA-SRAM pins: behaviour of the idealized comparison system that the
// seed golden does not cover — the controller's bus turnaround, the
// degraded-mode fallback cost, and the rowless command stream under
// every row policy.
package pva

import (
	"testing"

	"pva/internal/bankctl"
	"pva/internal/pvaunit"
	"pva/internal/trace"
)

// runKernelOn runs one paper kernel cell (1024 elements) on sys.
func runKernelOn(t *testing.T, sys System, kernel string, stride uint32, align int) Result {
	t.Helper()
	k, err := KernelByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(k.Build(PaperParams(stride, align)))
	if err != nil {
		t.Fatalf("%s %s stride %d align %d: %v", sys.Name(), kernel, stride, align, err)
	}
	return res
}

// TestSRAMTurnaroundReadsConfiguredCL: the SRAM device delivers read
// data one cycle after the command, but the bank controller's
// write-after-read turnaround still waits for the configured CAS
// latency, so CL moves PVA-SRAM cycle counts.
func TestSRAMTurnaroundReadsConfiguredCL(t *testing.T) {
	for _, c := range []struct{ cl, cycles uint64 }{{1, 2056}, {2, 2060}, {6, 2076}} {
		cfg := DefaultConfig()
		cfg.CL = c.cl
		sys, err := NewSRAMSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := runKernelOn(t, sys, "copy", 16, 0).Cycles; got != c.cycles {
			t.Errorf("pva-sram copy stride 16 at CL %d: %d cycles, want %d", c.cl, got, c.cycles)
		}
	}
}

// TestSRAMDegradedFallbackCost: the degraded-mode serial fallback
// charges PVA-SRAM one cycle per element, so losing two banks makes it
// faster than the healthy system, while PVA-SDRAM pays a full
// closed-page access per element.
func TestSRAMDegradedFallbackCost(t *testing.T) {
	for _, c := range []struct {
		name            string
		build           func(Config) (System, error)
		healthy, broken uint64
	}{
		{"pva-sram", NewSRAMSystem, 1219, 1157},
		{"pva-sdram", NewSystem, 1233, 1793},
	} {
		cfg := DefaultConfig()
		cfg.WatchdogCycles = 100_000
		sys, err := c.build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := runKernelOn(t, sys, "copy", 19, 0); got.Cycles != c.healthy || got.Stats.DegradedElements != 0 {
			t.Errorf("%s healthy: %d cycles, %d degraded; want %d, 0", c.name, got.Cycles, got.Stats.DegradedElements, c.healthy)
		}
		cfg.FaultPlan = FaultPlan{DeadBanks: []uint32{3, 9}}
		if sys, err = c.build(cfg); err != nil {
			t.Fatal(err)
		}
		if got := runKernelOn(t, sys, "copy", 19, 0); got.Cycles != c.broken || got.Stats.DegradedElements != 256 {
			t.Errorf("%s dead banks 3,9: %d cycles, %d degraded; want %d, 256", c.name, got.Cycles, got.Stats.DegradedElements, c.broken)
		}
	}
}

// TestSRAMTraceRowless: under any row policy the SRAM system issues no
// row command and no auto-precharge rider, so the closed-page and
// hot-row rules cost nothing over manage-row.
func TestSRAMTraceRowless(t *testing.T) {
	run := func(pol bankctl.Policy, kernel string, stride uint32, align int) (uint64, []trace.Event) {
		cfg := pvaunit.SRAMConfig()
		cfg.Policy = pol
		var log trace.Log
		cfg.Observer = log.Record
		sys, err := pvaunit.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return runKernelOn(t, sys, kernel, stride, align).Cycles, log.Events
	}
	for _, cell := range []struct {
		kernel string
		stride uint32
		align  int
	}{{"copy", 16, 0}, {"vaxpy", 19, 1}, {"swap", 4, 3}} {
		want, _ := run(bankctl.Policy{}, cell.kernel, cell.stride, cell.align)
		for _, pol := range []bankctl.Policy{
			{SPU: bankctl.FCFS, Row: bankctl.ClosedPage},
			{Row: bankctl.HotRow},
		} {
			cycles, evs := run(pol, cell.kernel, cell.stride, cell.align)
			if cycles != want {
				t.Errorf("%v %s stride %d: %d cycles, manage-row %d", pol, cell.kernel, cell.stride, cycles, want)
			}
			accesses := 0
			for _, e := range evs {
				switch e.Kind {
				case trace.Activate, trace.Precharge:
					t.Fatalf("%v %s stride %d: row command %+v on the SRAM system", pol, cell.kernel, cell.stride, e)
				case trace.ReadCmd, trace.WriteCmd:
					accesses++
					if e.Auto {
						t.Fatalf("%v %s stride %d: auto-precharge rider %+v on the SRAM system", pol, cell.kernel, cell.stride, e)
					}
				}
			}
			if accesses == 0 {
				t.Fatalf("%v %s stride %d: no access events", pol, cell.kernel, cell.stride)
			}
		}
	}
}
