package pvaunit

import (
	"fmt"
	"testing"

	"pva/internal/addrmap"
	"pva/internal/fault"
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
		return func() Config { return machineConfig(t, channels, decoder, tech, units) }
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
					sameRun(t, name, fast, slow, fastLog, slowLog)
				}
			}
		}
	}
}

// TestIdleSkipFaultsMultiChannel is the strict-versus-skipping oracle
// for the fault timers the channel dispatcher keeps per channel: NACK
// back-off and retransmission on a lossy bus, and the serial fallback of
// two dead banks on different channels. Gather, scatter and SpMV run on
// four xor-decoded SDRAM channels, and both engines must agree on
// cycles, every statistic, every gathered word and the whole Observer
// event stream.
func TestIdleSkipFaultsMultiChannel(t *testing.T) {
	plans := []struct {
		name string
		plan fault.Plan
	}{
		{"drops", fault.Plan{Seed: 4, DropRate: 0.2, MaxRetries: -1, Backoff: 3}},
		{"dead", fault.Plan{DeadBanks: []uint32{3, 2*16 + 9}}},
	}
	for _, pl := range plans {
		var nacks, degraded uint64
		for _, k := range kernels.Indexed() {
			for _, s := range []uint32{1, 19} {
				for a := 0; a < kernels.Alignments; a++ {
					p := kernels.PaperParams(s, a)
					p.Elements = 256
					tr := k.Build(p)
					name := fmt.Sprintf("%s/%s/stride%d/align%d", pl.name, k.Name, s, a)
					cfg := func() Config {
						c := machineConfig(t, 4, "xor", "sdram", 0)
						c.Fault = pl.plan
						c.WatchdogCycles = 500_000
						return c
					}
					fast, fastLog := runEngine(t, cfg(), false, tr, name)
					slow, slowLog := runEngine(t, cfg(), true, tr, name)
					sameRun(t, name, fast, slow, fastLog, slowLog)
					nacks += slow.Stats.BusNACKs
					degraded += slow.Stats.DegradedElements
				}
			}
		}
		if nacks+degraded == 0 {
			t.Fatalf("%s: the plan injected nothing", pl.name)
		}
	}
}

// TestIdleSkipFrontEndSteps pins how often the loop steps the front end.
// Skipping, it steps only on cycles its cached wake reaches or after an
// outside event; strict, on every cycle through the last, so the strict
// count is the cycle count plus one. The traces are the dispatcher
// benchmark's (four xor-decoded PCM-4p channels) and the fault tests'
// (the paper machine).
func TestIdleSkipFrontEndSteps(t *testing.T) {
	for _, c := range []struct {
		name                   string
		cfg                    Config
		tr                     memsys.Trace
		cycles                 uint64
		skipSteps, strictSteps uint64
	}{
		{"dispatch", machineConfig(t, 4, "xor", "pcm", 4), dispatchTrace(t), 1896, 1373, 1897},
		{"fault", PaperConfig(), faultTrace(), 62, 11, 63},
	} {
		for _, strict := range []bool{false, true} {
			cfg := c.cfg
			cfg.DisableIdleSkip = strict
			sys := MustNew(cfg)
			res, err := sys.Run(c.tr)
			if err != nil {
				t.Fatalf("%s strict=%v: %v", c.name, strict, err)
			}
			want := c.skipSteps
			if strict {
				want = c.strictSteps
			}
			if res.Cycles != c.cycles || sys.ses.fe.steps != want {
				t.Errorf("%s strict=%v: %d cycles, %d front-end steps; want %d and %d",
					c.name, strict, res.Cycles, sys.ses.fe.steps, c.cycles, want)
			}
		}
	}
}

// sameRun fails the test unless two runs of one trace agree on cycles,
// statistics, gathered data and event stream.
func sameRun(t *testing.T, name string, fast, slow memsys.Result, fastLog, slowLog []trace.Event) {
	t.Helper()
	if fast.Cycles != slow.Cycles {
		t.Fatalf("%s: skip %d cycles, strict %d", name, fast.Cycles, slow.Cycles)
	}
	if fast.Stats != slow.Stats {
		t.Fatalf("%s: stats diverged\nskip:   %+v\nstrict: %+v", name, fast.Stats, slow.Stats)
	}
	for i := range slow.ReadData {
		if len(fast.ReadData[i]) != len(slow.ReadData[i]) {
			t.Fatalf("%s: cmd %d gathered %d words, strict %d", name, i, len(fast.ReadData[i]), len(slow.ReadData[i]))
		}
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

// machineConfig returns the paper machine widened to the given channel
// count, decoder and back end; units is the subarray count for "salp"
// and the partition count otherwise.
func machineConfig(t testing.TB, channels uint32, decoder, tech string, units uint32) Config {
	t.Helper()
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
// sleep through all three broadcasts. Under closed-form hit math every
// bank still snoops each broadcast — its FirstHit predictor is the
// modelled hardware — so each of them counts three missed broadcasts.
func TestMissedControllerSleeps(t *testing.T) {
	sys := MustNew(PaperConfig())
	var cmds []memsys.VectorCmd
	for k := uint32(0); k < 3; k++ {
		cmds = append(cmds, readCmd(k<<12, 16, 32))
	}
	if _, err := sys.Run(memsys.Trace{Cmds: cmds}); err != nil {
		t.Fatal(err)
	}
	bcs := sys.ses.fe.chans[0].bcs
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

// TestPreClaimedBroadcastReachesOwnersOnly pins the owner-mask intake: a
// pre-claimed broadcast opens its channel's transaction-complete line
// for, and is delivered to, only the live banks its claim list names.
// Gather and scatter run on four xor-decoded channels, once healthy and
// once with a dead bank. Every live bank's Requests must equal the
// broadcasts owning at least one of its elements, counted here from the
// decoder, a dead bank takes none, and no bank counts a missed
// broadcast.
func TestPreClaimedBroadcastReachesOwnersOnly(t *testing.T) {
	for _, dead := range [][]uint32{nil, {2*16 + 5}} {
		for _, name := range []string{"gather", "scatter"} {
			k, err := kernels.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			p := kernels.PaperParams(19, 2)
			p.Elements = 256
			tr := k.Build(p)
			cfg := machineConfig(t, 4, "xor", "sdram", 0)
			cfg.Fault = fault.Plan{DeadBanks: dead}
			sys := MustNew(cfg)
			if _, err := sys.Run(tr); err != nil {
				t.Fatal(err)
			}
			M := cfg.Banks
			want := make([]uint64, cfg.Channels*M)
			for _, c := range tr.Cmds {
				owns := make([]bool, len(want))
				for e := uint32(0); e < c.V.Length; e++ {
					co := cfg.Decoder.Decode(c.Addr(e))
					owns[co.Channel*M+co.Bank] = true
				}
				for key, o := range owns {
					if o {
						want[key]++
					}
				}
			}
			for _, d := range dead {
				want[d] = 0
			}
			for ch, q := range sys.ses.fe.chans {
				for b, bc := range q.bcs {
					key := uint32(ch)*M + uint32(b)
					if s := bc.Stats(); s.Requests != want[key] || s.NoHitCommands != 0 {
						t.Fatalf("%s dead=%v ch %d bank %d: %d requests, %d missed broadcasts; want %d and 0",
							name, dead, ch, b, s.Requests, s.NoHitCommands, want[key])
					}
				}
			}
		}
	}
}
