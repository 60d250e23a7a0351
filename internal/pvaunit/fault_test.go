package pvaunit

import (
	"errors"
	"testing"

	"pva/internal/core"
	"pva/internal/fault"
	"pva/internal/memsys"
)

func faultTrace() memsys.Trace {
	line := make([]uint32, 32)
	for i := range line {
		line[i] = uint32(0x1000 + i)
	}
	return memsys.Trace{Cmds: []memsys.VectorCmd{
		{Op: memsys.Read, V: core.Vector{Base: 64, Stride: 19, Length: 32}},
		{Op: memsys.Write, V: core.Vector{Base: 8192, Stride: 5, Length: 32}, Data: line},
		{Op: memsys.Read, V: core.Vector{Base: 8192, Stride: 5, Length: 32}, DependsOn: []int{1}},
	}}
}

// checkAgainstReference replays the trace on the functional reference
// and compares every gathered line and the final memory image.
func checkAgainstReference(t *testing.T, s *System, tr memsys.Trace, res memsys.Result) {
	t.Helper()
	ref := memsys.NewReference()
	want, err := ref.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range tr.Cmds {
		if c.Op != memsys.Read {
			continue
		}
		for j := range want.ReadData[i] {
			if res.ReadData[i][j] != want.ReadData[i][j] {
				t.Fatalf("cmd %d word %d: got %#x, want %#x", i, j, res.ReadData[i][j], want.ReadData[i][j])
			}
		}
	}
	for _, c := range tr.Cmds {
		for i := uint32(0); i < c.V.Length; i++ {
			a := c.V.Addr(i)
			if g, w := s.Peek(a), ref.Peek(a); g != w {
				t.Fatalf("final image at %d: got %#x, want %#x", a, g, w)
			}
		}
	}
}

// livelock runs faultTrace on a bus dropping every broadcast with
// unlimited retries, which never progresses, in the skipping or the
// strict loop, and returns the DeadlockError that must end the run.
func livelock(t *testing.T, cfg Config, strict bool) *fault.DeadlockError {
	t.Helper()
	cfg.Fault = fault.Plan{Seed: 3, DropRate: 1, MaxRetries: -1}
	cfg.DisableIdleSkip = strict
	_, err := MustNew(cfg).Run(faultTrace())
	if !errors.Is(err, fault.ErrDeadlock) {
		t.Fatalf("strict=%v: err = %v, want ErrDeadlock", strict, err)
	}
	var de *fault.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("strict=%v: err %T is not *DeadlockError", strict, err)
	}
	if de.Dump == "" {
		t.Fatalf("strict=%v: deadlock error carries no diagnostic dump", strict)
	}
	return de
}

// TestWatchdogLivelock: on a livelocked bus the watchdog must return
// ErrDeadlock with a diagnostic dump instead of hanging until
// MaxCycles, in either loop.
func TestWatchdogLivelock(t *testing.T) {
	for _, strict := range []bool{false, true} {
		cfg := PaperConfig()
		cfg.WatchdogCycles = 2000
		if de := livelock(t, cfg, strict); de.Stalled < cfg.WatchdogCycles {
			t.Errorf("strict=%v: stalled %d < watchdog window %d", strict, de.Stalled, cfg.WatchdogCycles)
		}
	}
}

// TestWatchdog: the skipping loop fires the watchdog on exactly the
// cycle the strict loop does. The last progress lands on cycle 1, so a
// 2,000-cycle window fires at cycle 2,002 with 2,001 cycles stalled.
func TestWatchdog(t *testing.T) {
	for _, strict := range []bool{false, true} {
		cfg := PaperConfig()
		cfg.WatchdogCycles = 2000
		if de := livelock(t, cfg, strict); de.Cycle != 2002 || de.Stalled != 2001 {
			t.Errorf("strict=%v: watchdog fired at cycle %d with %d stalled, want 2002 and 2001",
				strict, de.Cycle, de.Stalled)
		}
	}
}

// TestMaxCycles: with the watchdog off, the MaxCycles backstop fires
// one cycle past its bound, in either loop.
func TestMaxCycles(t *testing.T) {
	for _, strict := range []bool{false, true} {
		cfg := PaperConfig()
		cfg.MaxCycles = 5000
		if de := livelock(t, cfg, strict); de.Cycle != 5001 || de.Stalled != 5000 {
			t.Errorf("strict=%v: backstop fired at cycle %d with %d stalled, want 5001 and 5000",
				strict, de.Cycle, de.Stalled)
		}
	}
}

// TestWatchdogQuietOnCleanRun: an armed watchdog never fires on a
// healthy run and changes neither timing nor data, in either loop, up
// to the largest window a uint64 holds.
func TestWatchdogQuietOnCleanRun(t *testing.T) {
	tr := faultTrace()
	clean := MustNew(PaperConfig())
	want, err := clean.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, strict := range []bool{false, true} {
		for _, wd := range []uint64{100_000, ^uint64(0)} {
			cfg := PaperConfig()
			cfg.WatchdogCycles = wd
			cfg.DisableIdleSkip = strict
			got, err := MustNew(cfg).Run(tr)
			if err != nil {
				t.Fatalf("strict=%v watchdog %d: %v", strict, wd, err)
			}
			if got.Cycles != want.Cycles {
				t.Fatalf("strict=%v watchdog %d changed timing: %d vs %d", strict, wd, got.Cycles, want.Cycles)
			}
		}
	}
}

// TestBusFaultExhaustsRetries: a 100%-drop bus with a bounded budget
// surfaces ErrBusFault naming the channel and command.
func TestBusFaultExhaustsRetries(t *testing.T) {
	cfg := PaperConfig()
	cfg.Fault = fault.Plan{Seed: 3, DropRate: 1, MaxRetries: 4}
	s := MustNew(cfg)
	_, err := s.Run(faultTrace())
	if !errors.Is(err, fault.ErrBusFault) {
		t.Fatalf("err = %v, want ErrBusFault", err)
	}
	var be *fault.BusFaultError
	if !errors.As(err, &be) || be.Attempts != 5 {
		t.Fatalf("err %+v: want 5 attempts (initial + 4 retries)", err)
	}
}

// TestDegradedModeMatchesReference: with dead bank controllers the
// dispatcher re-routes their subvectors through the serial fallback;
// the run completes, counts the degraded elements, and still moves
// exactly the right data.
func TestDegradedModeMatchesReference(t *testing.T) {
	for _, dead := range [][]uint32{{0}, {3, 7}, {0, 1, 2, 3}} {
		cfg := PaperConfig()
		cfg.Fault = fault.Plan{DeadBanks: dead}
		s := MustNew(cfg)
		tr := faultTrace()
		res, err := s.Run(tr)
		if err != nil {
			t.Fatalf("dead=%v: %v", dead, err)
		}
		if res.Stats.DegradedElements == 0 {
			t.Fatalf("dead=%v: no degraded elements counted", dead)
		}
		checkAgainstReference(t, s, tr, res)
	}
}

// TestDegradedModeSlower: losing banks costs cycles, never corrupts.
func TestDegradedModeSlower(t *testing.T) {
	tr := faultTrace()
	clean := MustNew(PaperConfig())
	want, err := clean.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperConfig()
	cfg.Fault = fault.Plan{DeadBanks: []uint32{2, 5}}
	s := MustNew(cfg)
	got, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles <= want.Cycles {
		t.Fatalf("degraded run (%d cycles) not slower than clean (%d)", got.Cycles, want.Cycles)
	}
}

// TestDegradedModeMultiChannel exercises the fallback on a channel
// other than 0 (flat dead-bank index channel*M + bank).
func TestDegradedModeMultiChannel(t *testing.T) {
	cfg := PaperConfig()
	cfg.Channels = 2
	cfg.Decoder = nil
	cfg.Fault = fault.Plan{DeadBanks: []uint32{16 + 4}} // channel 1, bank 4
	s := MustNew(cfg)
	tr := faultTrace()
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ChannelStats) != 2 {
		t.Fatalf("%d channel stats", len(res.ChannelStats))
	}
	if res.ChannelStats[0].DegradedElements != 0 {
		t.Fatalf("channel 0 reports %d degraded elements", res.ChannelStats[0].DegradedElements)
	}
	if res.ChannelStats[1].DegradedElements == 0 {
		t.Fatal("channel 1 reports no degraded elements")
	}
	checkAgainstReference(t, s, tr, res)
}

// TestDeadBankValidation: New rejects out-of-range dead banks.
func TestDeadBankValidation(t *testing.T) {
	cfg := PaperConfig()
	cfg.Fault = fault.Plan{DeadBanks: []uint32{16}} // 1 channel x 16 banks
	if _, err := New(cfg); err == nil {
		t.Fatal("out-of-range dead bank accepted")
	}
}

// TestNACKRecoveryDeterministic: a lossy-but-recoverable bus yields the
// right data, NACK counters, and the same counters on a second run.
func TestNACKRecoveryDeterministic(t *testing.T) {
	tr := faultTrace()
	run := func() memsys.Result {
		cfg := PaperConfig()
		cfg.Fault = fault.Plan{Seed: 21, DropRate: 0.9, MaxRetries: -1, Backoff: 2}
		s := MustNew(cfg)
		res, err := s.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, s, tr, res)
		return res
	}
	a, b := run(), run()
	if a.Stats.BusNACKs == 0 {
		t.Fatal("drop rate 0.4 produced no NACKs")
	}
	if a.Stats != b.Stats || a.Cycles != b.Cycles {
		t.Fatalf("identical runs diverged: %+v / %+v", a.Stats, b.Stats)
	}
}

// TestInvariantRecoveredAtRunBoundary: a simulator invariant raised
// anywhere in the pipeline surfaces as an *InvariantError from Run, not
// a panic. The misuse here (releasing a transaction that was never
// allocated) trips the bus board's invariant inside a Run-like scope.
func TestInvariantRecoveredAtRunBoundary(t *testing.T) {
	// Drive the recovery path through the same defer Run installs.
	err := func() (err error) {
		defer fault.RecoverInvariant(&err)
		fault.Invariantf("bus", "txn %d not allocated", 3)
		return nil
	}()
	var ie *fault.InvariantError
	if !errors.As(err, &ie) || ie.Component != "bus" {
		t.Fatalf("recovered %v", err)
	}
}
