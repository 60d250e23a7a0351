package pvaunit

import (
	"fmt"
	"testing"

	"pva/internal/addrmap"
	"pva/internal/kernels"
	"pva/internal/memsys"
	"pva/internal/trace"
)

// TestIdleSkipBitIdentical proves the event-driven cycle skipping and
// the lazily stepped front end elide only no-op cycles: for every
// kernel, paper stride and alignment, the skipping and strict
// tick-every-cycle engines must agree on the cycle count, every
// statistic, every gathered word and the whole Observer event stream —
// on the SDRAM prototype, the idealized SRAM variant, and multi-channel
// machines on the SDRAM, SALP and PCM back ends under the line and xor
// decoders.
func TestIdleSkipBitIdentical(t *testing.T) {
	strides := []uint32{1, 2, 4, 8, 16, 19}
	if testing.Short() {
		strides = []uint32{1, 16, 19}
	}
	machine := func(channels uint32, decoder, tech string, units uint32) func() Config {
		return func() Config {
			c := PaperConfig()
			c.Channels = channels
			dec, err := addrmap.Parse(decoder, channels, c.Banks, c.LineWords)
			if err != nil {
				t.Fatal(err)
			}
			c.Decoder = dec
			var sub, part uint32
			if tech == "salp" {
				sub = units
			} else {
				part = units
			}
			if err := ApplyTech(&c, tech, sub, part); err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	all := append(kernels.All(), kernels.Indexed()...)
	for _, m := range []struct {
		name string
		cfg  func() Config
	}{
		{"sdram", PaperConfig},
		{"sram", SRAMConfig},
		{"4ch-xor-pcm-4p", machine(4, "xor", "pcm", 4)},
		{"2ch-line-salp-4", machine(2, "line", "salp", 4)},
		{"4ch-xor-sdram", machine(4, "xor", "sdram", 0)},
	} {
		for _, k := range all {
			for _, s := range strides {
				for a := 0; a < kernels.Alignments; a++ {
					p := kernels.PaperParams(s, a)
					p.Elements = 256
					tr := k.Build(p)
					name := fmt.Sprintf("%s/%s/stride%d/align%d", m.name, k.Name, s, a)
					fast, fastLog := runEngine(t, m.cfg(), false, tr, name)
					slow, slowLog := runEngine(t, m.cfg(), true, tr, name)
					if fast.Cycles != slow.Cycles {
						t.Fatalf("%s: skip %d cycles, strict %d", name, fast.Cycles, slow.Cycles)
					}
					if fast.Stats != slow.Stats {
						t.Fatalf("%s: stats diverged\nskip:   %+v\nstrict: %+v", name, fast.Stats, slow.Stats)
					}
					for i := range slow.ReadData {
						for j := range slow.ReadData[i] {
							if fast.ReadData[i][j] != slow.ReadData[i][j] {
								t.Fatalf("%s: cmd %d word %d diverged", name, i, j)
							}
						}
					}
					if len(fastLog) != len(slowLog) {
						t.Fatalf("%s: skip emitted %d events, strict %d", name, len(fastLog), len(slowLog))
					}
					for i := range slowLog {
						if fastLog[i] != slowLog[i] {
							t.Fatalf("%s: event %d diverged\nskip:   %+v\nstrict: %+v", name, i, fastLog[i], slowLog[i])
						}
					}
				}
			}
		}
	}
}

// TestIdleSkipBitIdenticalRefresh extends the equivalence to a refresh-
// enabled configuration, where the skipping engine must land exactly on
// every refresh obligation.
func TestIdleSkipBitIdenticalRefresh(t *testing.T) {
	k, err := kernels.ByName("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	p := kernels.PaperParams(16, 0)
	p.Elements = 256
	trace := k.Build(p)
	mk := func(disable bool) Config {
		c := PaperConfig()
		c.Timing.RefreshInterval = 200
		c.Timing.TRFC = 8
		c.DisableIdleSkip = disable
		return c
	}
	fast, err := MustNew(mk(false)).Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := MustNew(mk(true)).Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cycles != slow.Cycles || fast.Stats != slow.Stats {
		t.Fatalf("refresh run diverged: skip %d cycles %+v, strict %d cycles %+v",
			fast.Cycles, fast.Stats, slow.Cycles, slow.Stats)
	}
}

// runEngine runs the trace on a fresh system built from cfg, with the
// idle skip on or off, and returns the result and the event stream.
func runEngine(t *testing.T, cfg Config, disableSkip bool, tr memsys.Trace, name string) (memsys.Result, []trace.Event) {
	t.Helper()
	var log trace.Log
	cfg.Observer = log.Record
	cfg.DisableIdleSkip = disableSkip
	res, err := MustNew(cfg).Run(tr)
	if err != nil {
		t.Fatalf("%s (skip disabled=%v): %v", name, disableSkip, err)
	}
	return res, log.Events
}

// TestMissedControllerSleeps: a broadcast wakes only the controllers it
// feeds. Three stride-16 reads are all owned by bank 0, so banks 1–15
// tick once, in the first cycle, when every controller is due, and
// sleep through all three broadcasts.
func TestMissedControllerSleeps(t *testing.T) {
	sys := MustNew(PaperConfig())
	var cmds []memsys.VectorCmd
	for k := uint32(0); k < 3; k++ {
		cmds = append(cmds, readCmd(k<<12, 16, 32))
	}
	if _, err := sys.Run(memsys.Trace{Cmds: cmds}); err != nil {
		t.Fatal(err)
	}
	bcs := sys.ses.fe.bcs[0]
	if s := bcs[0].Stats(); s.Requests != 3 {
		t.Fatalf("bank 0 took %d requests, want 3", s.Requests)
	}
	for b, bc := range bcs[1:] {
		if s := bc.Stats(); s.Requests != 0 || s.NoHitCommands != 3 {
			t.Fatalf("bank %d: %d requests, %d missed broadcasts; want 0 and 3", b+1, s.Requests, s.NoHitCommands)
		}
		if now := bc.CycleNow(); now != 1 {
			t.Errorf("bank %d ends the run at cycle %d, want 1", b+1, now)
		}
	}
}
