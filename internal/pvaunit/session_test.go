package pvaunit

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"pva/internal/bus"
	"pva/internal/core"
	"pva/internal/fault"
	"pva/internal/memsys"
)

// streamTrace builds n read commands over disjoint strided vectors.
func streamTrace(n int) memsys.Trace {
	cmds := make([]memsys.VectorCmd, n)
	for i := range cmds {
		cmds[i] = memsys.VectorCmd{
			Op: memsys.Read,
			V:  core.Vector{Base: uint32(i * 4096), Stride: 19, Length: 32},
		}
	}
	return memsys.Trace{Cmds: cmds}
}

// TestSessionBasics walks one read and one dependent write through
// Issue/Poll/Wait and checks the snapshots and data.
func TestSessionBasics(t *testing.T) {
	s := MustNew(PaperConfig())
	ses, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ses.Issue(memsys.VectorCmd{Op: memsys.Read, V: core.Vector{Base: 64, Stride: 19, Length: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if info, err := ses.Poll(rd); err != nil || info.Done {
		t.Fatalf("fresh ticket: info=%+v err=%v, want not done", info, err)
	}
	info, err := ses.Wait(rd)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Done || info.Data == nil {
		t.Fatalf("waited ticket lacks completion or data: %+v", info)
	}
	if info.CompletedAt == 0 || info.CompletedAt < info.IssuedAt {
		t.Fatalf("implausible timestamps: %+v", info)
	}
	for j := range info.Data {
		if want := memsys.Fill(64 + 19*uint32(j)); info.Data[j] != want {
			t.Fatalf("word %d: got %#x want %#x", j, info.Data[j], want)
		}
	}
	line := make([]uint32, 32)
	for i := range line {
		line[i] = uint32(i)
	}
	wr, err := ses.Issue(memsys.VectorCmd{Op: memsys.Write, V: core.Vector{Base: 8192, Stride: 5, Length: 32}, Data: line})
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	if info, err := ses.Poll(wr); err != nil || !info.Done {
		t.Fatalf("drained write not done: info=%+v err=%v", info, err)
	}
	if got := s.Peek(8192 + 5*7); got != 7 {
		t.Fatalf("written word reads back %#x, want 7", got)
	}
	res, err := ses.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.ReadData[int(rd)] == nil {
		t.Fatalf("result incomplete: %+v", res)
	}
}

// TestSessionValidation: a bad command is rejected without poisoning
// the session; out-of-range tickets error.
func TestSessionValidation(t *testing.T) {
	s := MustNew(PaperConfig())
	ses, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Issue(memsys.VectorCmd{Op: memsys.Read}); err == nil {
		t.Fatal("zero-length command accepted")
	}
	if _, err := ses.Issue(memsys.VectorCmd{Op: memsys.Read, V: core.Vector{Base: 0, Stride: 1, Length: 32}, DependsOn: []int{5}}); err == nil {
		t.Fatal("forward dependency accepted")
	}
	if _, err := ses.Poll(99); err == nil {
		t.Fatal("out-of-range ticket polled")
	}
	// The session still works after rejections.
	tk, err := ses.Issue(memsys.VectorCmd{Op: memsys.Read, V: core.Vector{Base: 0, Stride: 1, Length: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Wait(tk); err != nil {
		t.Fatal(err)
	}
}

// TestSessionBackpressure fills the transaction pool and the admission
// queue and verifies Issue pumps the clock (backpressure) instead of
// growing the window unboundedly.
func TestSessionBackpressure(t *testing.T) {
	s := MustNew(PaperConfig())
	ses, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.SetQueueDepth(2); err != nil {
		t.Fatal(err)
	}
	if ses.Now() != 0 {
		t.Fatalf("fresh session clock %d", ses.Now())
	}
	// Saturate: eight transactions issue only once the loop steps, so
	// drive the session to the point where all eight are claimed by
	// waiting on the first ticket's issue via a queue-full pump.
	var admitted []Ticket
	advanced := false
	for i := 0; i < 40; i++ {
		before := ses.Now()
		tk, err := ses.Issue(streamTrace(40).Cmds[i])
		if err != nil {
			t.Fatal(err)
		}
		admitted = append(admitted, tk)
		if ses.Now() > before {
			advanced = true
			if ses.Queued() > 2 {
				t.Fatalf("queue depth %d exceeds bound 2 after pump", ses.Queued())
			}
		}
	}
	if !advanced {
		t.Fatal("40 issues never engaged backpressure (clock never advanced)")
	}
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range admitted {
		info, err := ses.Poll(tk)
		if err != nil || !info.Done {
			t.Fatalf("ticket %d not done after drain: %+v err=%v", tk, info, err)
		}
	}
	if ses.Outstanding() != 0 {
		t.Fatalf("%d outstanding after drain", ses.Outstanding())
	}
}

// TestIdleSessionWatchdogQuiet is the regression test for the idle-open
// -session bug: an armed watchdog must not fire on a session that sits
// idle (no commands, or drained) for arbitrarily long wall-clock
// stretches — the clock only advances while work is pumped.
func TestIdleSessionWatchdogQuiet(t *testing.T) {
	cfg := PaperConfig()
	cfg.WatchdogCycles = 100
	s := MustNew(cfg)
	ses, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	// Idle before any work: Drain and Result must not trip anything.
	if err := ses.Drain(); err != nil {
		t.Fatalf("drain of idle session: %v", err)
	}
	tk, err := ses.Issue(memsys.VectorCmd{Op: memsys.Read, V: core.Vector{Base: 0, Stride: 33, Length: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Wait(tk); err != nil {
		t.Fatalf("wait across an armed watchdog: %v", err)
	}
	// Drained and idle again; a second burst much later than the
	// watchdog window (in accepted-cycle terms) must still run clean.
	tk2, err := ses.Issue(memsys.VectorCmd{Op: memsys.Read, V: core.Vector{Base: 1 << 20, Stride: 33, Length: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Wait(tk2); err != nil {
		t.Fatalf("second burst after idle: %v", err)
	}
	if err := ses.Err(); err != nil {
		t.Fatalf("sticky error on clean session: %v", err)
	}
}

// TestSessionDeadlockDumpNamesTickets: when a session deadlocks, the
// error's dump names the stalled tickets so a streaming caller can tell
// which of its requests hung.
func TestSessionDeadlockDumpNamesTickets(t *testing.T) {
	cfg := PaperConfig()
	cfg.Fault = fault.Plan{Seed: 3, DropRate: 1, MaxRetries: -1}
	cfg.WatchdogCycles = 2000
	s := MustNew(cfg)
	ses, err := s.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ses.Issue(memsys.VectorCmd{Op: memsys.Read, V: core.Vector{Base: 64, Stride: 19, Length: 32}}); err != nil {
		t.Fatal(err)
	}
	err = ses.Drain()
	if !errors.Is(err, fault.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	var de *fault.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err %T is not *DeadlockError", err)
	}
	if !strings.Contains(de.Dump, "stalled tickets") || !strings.Contains(de.Dump, "ticket 0") {
		t.Fatalf("dump does not name stalled tickets:\n%s", de.Dump)
	}
	// The failure is sticky: the session refuses further work.
	if _, err := ses.Issue(memsys.VectorCmd{Op: memsys.Read, V: core.Vector{Base: 0, Stride: 1, Length: 32}}); !errors.Is(err, fault.ErrDeadlock) {
		t.Fatalf("post-deadlock issue: err = %v, want sticky ErrDeadlock", err)
	}
	if ses.Err() == nil {
		t.Fatal("Err() nil after deadlock")
	}
}

// TestReuseAfterFailedRun: a run that fails with commands in flight
// leaves their per-channel state and an unfinished read's line for the
// next Open to recycle. On the four-channel xor PCM-4p machine, in both
// loops, half the dispatcher trace plus a write whose Compute returns
// one word fails when that write takes its transaction ID; then three
// runs of the whole trace, each from the restored cold snapshot, must
// match a fresh System's cycles, statistics and gathered data.
func TestReuseAfterFailedRun(t *testing.T) {
	tr := dispatchTrace(t)
	bad := append(slices.Clone(tr.Cmds[:len(tr.Cmds)/2]), memsys.VectorCmd{
		Op:      memsys.Write,
		V:       core.Vector{Base: 1 << 20, Stride: 1, Length: 32},
		Compute: func([][]uint32) []uint32 { return []uint32{0} },
	})
	for _, strict := range []bool{false, true} {
		cfg := machineConfig(t, 4, "xor", "pcm", 4)
		cfg.DisableIdleSkip = strict
		want, err := MustNew(cfg).Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		sys := MustNew(cfg)
		cold := sys.Snapshot()
		if _, err := sys.Run(memsys.Trace{Cmds: bad}); err == nil || !strings.Contains(err.Error(), "Compute returned 1 words") ||
			!strings.Contains(err.Error(), "ticket 96") || !strings.Contains(err.Error(), "cycle 748") {
			t.Fatalf("strict=%v: failing run returned %v", strict, err)
		}
		fe := sys.ses.fe
		var open, lined int
		for i, st := range fe.state {
			if !st.completed && st.ch != nil {
				open++
			}
			if !st.completed && fe.cmds[i].Op == memsys.Read && fe.lines[i] != nil {
				lined++
			}
		}
		if open < 2 || lined == 0 {
			t.Fatalf("strict=%v: the run failed with %d commands and %d read lines in flight", strict, open, lined)
		}
		for k := range 3 {
			if err := sys.Restore(cold); err != nil {
				t.Fatal(err)
			}
			got, err := sys.Run(tr)
			if err != nil {
				t.Fatalf("strict=%v run %d: %v", strict, k, err)
			}
			if got.Cycles != want.Cycles || got.Stats != want.Stats ||
				!slices.Equal(got.ChannelStats, want.ChannelStats) ||
				!slices.EqualFunc(got.ReadData, want.ReadData, slices.Equal[[]uint32]) {
				t.Fatalf("strict=%v run %d: %d cycles %+v; fresh %d cycles %+v",
					strict, k, got.Cycles, got.Stats, want.Cycles, want.Stats)
			}
		}
	}
}

// TestSessionStreamEqualsBatch: the keystone equivalence on a window
// larger than the transaction pool — issuing one command at a time with
// default backpressure reproduces the batch cycle count and data
// exactly.
func TestSessionStreamEqualsBatch(t *testing.T) {
	tr := streamTrace(3 * bus.MaxTransactions)
	batch, err := MustNew(PaperConfig()).Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	ses, err := MustNew(PaperConfig()).Open()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Cmds {
		if _, err := ses.Issue(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := ses.Drain(); err != nil {
		t.Fatal(err)
	}
	stream, err := ses.Result()
	if err != nil {
		t.Fatal(err)
	}
	if stream.Cycles != batch.Cycles {
		t.Fatalf("stream %d cycles, batch %d", stream.Cycles, batch.Cycles)
	}
	if stream.Stats != batch.Stats {
		t.Fatalf("stats diverge:\nstream %+v\nbatch  %+v", stream.Stats, batch.Stats)
	}
	for i := range tr.Cmds {
		for j := range batch.ReadData[i] {
			if stream.ReadData[i][j] != batch.ReadData[i][j] {
				t.Fatalf("cmd %d word %d: stream %#x batch %#x", i, j, stream.ReadData[i][j], batch.ReadData[i][j])
			}
		}
	}
}

// TestStatsMergeConsistency: the per-channel breakdown merges back into
// the totals exactly, on a multi-channel configuration.
func TestStatsMergeConsistency(t *testing.T) {
	cfg := PaperConfig()
	cfg.Channels = 4
	cfg.Decoder = nil // re-derive for 4 channels
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(streamTrace(10))
	if err != nil {
		t.Fatal(err)
	}
	var merged memsys.Stats
	for _, cs := range res.ChannelStats {
		merged.Merge(cs)
	}
	if merged != res.Stats {
		t.Fatalf("channel stats do not merge to totals:\nmerged %+v\ntotal  %+v", merged, res.Stats)
	}
}
