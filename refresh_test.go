package pva

import (
	"strings"
	"testing"
)

// TestRefreshEndToEnd runs a kernel with the refresh obligation enabled:
// the controllers must interleave AUTO REFRESH commands with the vector
// work, the data must stay correct, and the run must cost more cycles
// than the refresh-free configuration.
func TestRefreshEndToEnd(t *testing.T) {
	k, err := KernelByName("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	// Stride 16 collapses onto one bank, making the run SDRAM-bound so
	// refresh interference cannot hide under bus slack.
	trace := k.Build(PaperParams(16, 0))

	plain, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	resPlain, err := plain.Run(trace)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.RefreshInterval = 200 // aggressive, to force visible interference
	cfg.TRFC = 8
	refreshed, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resRef, err := refreshed.Run(trace)
	if err != nil {
		t.Fatal(err)
	}

	if resRef.Cycles <= resPlain.Cycles {
		t.Errorf("refresh run (%d cycles) not slower than plain (%d)", resRef.Cycles, resPlain.Cycles)
	}
	// Data correctness under refresh.
	want, err := Reference().Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace.Cmds {
		if trace.Cmds[i].Op != Read {
			continue
		}
		for j := range want.ReadData[i] {
			if resRef.ReadData[i][j] != want.ReadData[i][j] {
				t.Fatalf("cmd %d word %d corrupted under refresh", i, j)
			}
		}
	}
	t.Logf("plain: %d cycles; with refresh every 200: %d cycles (+%.1f%%)",
		resPlain.Cycles, resRef.Cycles,
		100*float64(resRef.Cycles-resPlain.Cycles)/float64(resPlain.Cycles))
}

// TestRefreshRealisticInterval uses the actual 64 ms / 4096-row
// obligation at 100 MHz (one refresh every ~1562 cycles): the overhead
// must be small, as every real controller relies on.
func TestRefreshRealisticInterval(t *testing.T) {
	k, _ := KernelByName("copy")
	trace := k.Build(PaperParams(1, 0))
	cfg := DefaultConfig()
	cfg.RefreshInterval = 1562
	cfg.TRFC = 8
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := NewSystem(DefaultConfig())
	base, err := plain.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	overhead := float64(res.Cycles-base.Cycles) / float64(base.Cycles)
	if overhead > 0.05 {
		t.Errorf("realistic refresh costs %.1f%%, expected under 5%%", 100*overhead)
	}
}

// TestConfigLimits pins the configurations Validate rejects because no
// bank controller can run them: each error names its field, and every
// probe that passed Validate before this check ended in an invariant
// violation or a deadlock. For each TRFC the refresh floor is exact: the
// smallest accepted interval completes four kernels at strides 1 and 19
// under the watchdog, and the interval below it is rejected.
func TestConfigLimits(t *testing.T) {
	for _, c := range []struct {
		cfg   Config
		field string
		sram  bool // rejected by the PVA-SRAM constructors, not by Validate
	}{
		{Config{VCWindow: -1}, "VCWindow", false},
		{Config{RefreshInterval: 5, TRFC: 10}, "RefreshInterval", false},
		// PCM runs on its preset timing: row timing and refresh settings
		// would be dropped, so they are refused, not ignored.
		{Config{Tech: "pcm", Partitions: 4, TRCD: 6, CL: 6, TRP: 6}, "TRCD=6, CL=6, TRP=6", false},
		{Config{Tech: "pcm", Partitions: 4, RefreshInterval: 100, TRFC: 10}, "RefreshInterval=100, TRFC=10", false},
		{Config{Tech: "pcm", Partitions: 4, RefreshInterval: 15, TRFC: 10}, "RefreshInterval=15, TRFC=10", false},
		{Config{Tech: "pcm", CL: 3}, "CL=3", false},
		// The PVA-SRAM system has no rows, back ends or refresh.
		{Config{Tech: "pcm", Partitions: 4}, `Tech="pcm", Partitions=4`, true},
		{Config{Tech: "salp", SubarraysPerBank: 4}, `Tech="salp", SubarraysPerBank=4`, true},
		{Config{SubarraysPerBank: 2}, "SubarraysPerBank=2", true},
		{Config{TRCD: 6, CL: 6, TRP: 1}, "TRCD=6, TRP=1", true},
		{Config{RefreshInterval: 100, TRFC: 10}, "RefreshInterval=100, TRFC=10", true},
		{Config{TRFC: 10}, "TRFC=10", true},
	} {
		if c.sram {
			_, err := NewSRAMSystem(c.cfg)
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%+v: NewSRAMSystem = %v, want an error naming %s", c.cfg, err, c.field)
			}
			if _, err := OpenSRAM(c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%+v: OpenSRAM = %v, want an error naming %s", c.cfg, err, c.field)
			}
			continue
		}
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: Validate = %v, want an error naming %s", c.cfg, err, c.field)
		}
		if _, err := NewSystem(c.cfg); err == nil {
			t.Errorf("%+v: NewSystem accepted it", c.cfg)
		}
	}
	// What each system does read stays accepted: PCM at the paper's
	// timing spelled out, and the SRAM system's CL (the controllers'
	// turnaround) and the explicit single-unit SDRAM selection.
	if err := (Config{Tech: "pcm", Partitions: 4, TRCD: 2, CL: 2, TRP: 2}).Validate(); err != nil {
		t.Errorf("PCM at the paper's timing: %v", err)
	}
	for _, cfg := range []Config{{CL: 6}, {Tech: "sdram", SubarraysPerBank: 1, Partitions: 1, TRCD: 2, TRP: 2}} {
		if _, err := NewSRAMSystem(cfg); err != nil {
			t.Errorf("%+v: NewSRAMSystem = %v", cfg, err)
		}
	}
	d := DefaultConfig()
	for _, trfc := range []uint64{1, 4, 10} {
		floor := trfc + d.TRP + d.TRCD + uint64(d.VCWindow)
		below := Config{RefreshInterval: floor, TRFC: trfc}
		if err := below.Validate(); err == nil || !strings.Contains(err.Error(), "RefreshInterval") {
			t.Errorf("TRFC %d: interval %d accepted (%v)", trfc, floor, err)
		}
		at := Config{RefreshInterval: floor + 1, TRFC: trfc, WatchdogCycles: 20_000}
		for _, name := range []string{"copy", "vaxpy", "swap", "scale"} {
			k, err := KernelByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []uint32{1, 19} {
				sys, err := NewSystem(at)
				if err != nil {
					t.Fatalf("TRFC %d interval %d: %v", trfc, floor+1, err)
				}
				if _, err := sys.Run(k.Build(PaperParams(s, 0))); err != nil {
					t.Errorf("TRFC %d interval %d: %s stride %d: %v", trfc, floor+1, name, s, err)
				}
			}
		}
	}
}
