package pva

import (
	"bytes"
	"strings"
	"testing"

	"pva/internal/pvaunit"
	"pva/internal/trace"
)

// tracedRun executes a trace with event capture.
func tracedRun(t *testing.T, cmds []VectorCmd) (*TraceLog, Result) {
	t.Helper()
	sys, log, err := NewTracedSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(Trace{Cmds: cmds})
	if err != nil {
		t.Fatal(err)
	}
	return log, res
}

func mixedTrace() []VectorCmd {
	data := make([]uint32, 32)
	for i := range data {
		data[i] = uint32(i)
	}
	return []VectorCmd{
		{Op: Read, V: Vector{Base: 0, Stride: 7, Length: 32}},
		{Op: Read, V: Vector{Base: 8192, Stride: 3, Length: 32}},
		{Op: Write, V: Vector{Base: 1 << 16, Stride: 7, Length: 32}, Data: data},
		{Op: Read, V: Vector{Base: 1 << 18, Stride: 19, Length: 32}},
		{Op: Write, V: Vector{Base: 1 << 17, Stride: 5, Length: 32}, Data: data},
	}
}

// TestInvariantSubvectorOrder: within one bank, a transaction's element
// accesses issue in increasing element-index order (the VC walks its
// subvector with the shift-and-add of Section 4.2).
func TestInvariantSubvectorOrder(t *testing.T) {
	log, _ := tracedRun(t, mixedTrace())
	last := map[[2]int]int64{} // (bank, txn) -> last element index
	for _, e := range log.Sorted() {
		switch e.Kind {
		case trace.Broadcast:
			// Transaction IDs are recycled; a new broadcast restarts the
			// per-bank element walk for that ID.
			for b := 0; b < 16; b++ {
				delete(last, [2]int{b, e.Txn})
			}
		case trace.ReadCmd, trace.WriteCmd:
			k := [2]int{e.Bank, e.Txn}
			if prev, ok := last[k]; ok && int64(e.Elem) <= prev {
				t.Fatalf("bank %d txn %d issued element %d after %d", e.Bank, e.Txn, e.Elem, prev)
			}
			last[k] = int64(e.Elem)
		}
	}
}

// TestInvariantPolarityGap: on each bank's data bus, a write command
// never follows a read before the read's data has left the device's
// pins plus one turnaround cycle, and a read never follows a write
// within 2 cycles (the turnaround restimers of Section 5.2.5), on every
// back end. On swap at stride 16, alignment 0, the tightest READ→WRITE
// gap is exactly the device's read latency + 1: the controller waits for
// its own device, whatever timing is configured.
func TestInvariantPolarityGap(t *testing.T) {
	withTech := func(tech string, subarrays, partitions uint32) func() pvaunit.Config {
		return func() pvaunit.Config {
			c := pvaunit.PaperConfig()
			if err := pvaunit.ApplyTech(&c, tech, subarrays, partitions); err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	swap, err := KernelByName("swap")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name string
		cfg  func() pvaunit.Config
	}{
		{"sdram", pvaunit.PaperConfig},
		{"salp-4", withTech("salp", 4, 0)},
		{"pcm-4p", withTech("pcm", 0, 4)},
		{"pva-sram", pvaunit.SRAMConfig},
	} {
		for _, tr := range []struct {
			name  string
			trace Trace
			tight bool // the smallest READ→WRITE gap must equal the minimum
		}{
			{"mixed", Trace{Cmds: mixedTrace()}, false},
			{"swap/16/0", swap.Build(PaperParams(16, 0)), true},
		} {
			cfg := m.cfg()
			var log TraceLog
			cfg.Observer = log.Record
			sys, err := pvaunit.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(tr.trace); err != nil {
				t.Fatalf("%s %s: %v", m.name, tr.name, err)
			}
			readTurn := int64(cfg.Tech.Timing(cfg.Timing).CL) + 1
			minGap := int64(1 << 40)
			for b := 0; b < int(cfg.Banks); b++ {
				lastRead, lastWrite := int64(-1000), int64(-1000)
				for _, e := range log.ByBank(b) {
					switch e.Kind {
					case trace.ReadCmd:
						if int64(e.Cycle) < lastWrite+2 {
							t.Fatalf("%s %s bank %d: read at %d too soon after write at %d", m.name, tr.name, b, e.Cycle, lastWrite)
						}
						lastRead = int64(e.Cycle)
					case trace.WriteCmd:
						gap := int64(e.Cycle) - lastRead
						if gap < readTurn {
							t.Fatalf("%s %s bank %d: write at %d too soon after read at %d", m.name, tr.name, b, e.Cycle, lastRead)
						}
						minGap = min(minGap, gap)
						lastWrite = int64(e.Cycle)
					}
				}
			}
			if tr.tight && minGap != readTurn {
				t.Errorf("%s %s: smallest READ→WRITE gap %d, want read latency + 1 = %d", m.name, tr.name, minGap, readTurn)
			}
		}
	}
}

// TestInvariantRAWOrder: when a read follows a write to overlapping
// addresses, every bank issues all the write's elements before any of
// the read's (the consistency guarantee of Section 5.2.4).
func TestInvariantRAWOrder(t *testing.T) {
	data := make([]uint32, 32)
	log, _ := tracedRun(t, []VectorCmd{
		{Op: Write, V: Vector{Base: 0, Stride: 3, Length: 32}, Data: data},
		{Op: Read, V: Vector{Base: 0, Stride: 3, Length: 32}},
	})
	for b := 0; b < 16; b++ {
		seenRead := false
		for _, e := range log.ByBank(b) {
			switch e.Kind {
			case trace.ReadCmd:
				seenRead = true
			case trace.WriteCmd:
				if seenRead {
					t.Fatalf("bank %d: write issued after read of same addresses", b)
				}
			}
		}
	}
}

// TestInvariantActivateBeforeAccess: every column access to an internal
// bank follows an activate of its row with no interposed precharge
// (legality is also enforced by the device checker; this validates the
// event stream itself).
func TestInvariantActivateBeforeAccess(t *testing.T) {
	log, _ := tracedRun(t, mixedTrace())
	type bankState struct {
		open bool
		row  uint32
	}
	states := map[[2]uint32]*bankState{} // (bank, ibank)
	for _, e := range log.Sorted() {
		if e.Bank < 0 {
			continue
		}
		key := [2]uint32{uint32(e.Bank), e.IBank}
		st, ok := states[key]
		if !ok {
			st = &bankState{}
			states[key] = st
		}
		switch e.Kind {
		case trace.Activate:
			st.open, st.row = true, e.Row
		case trace.Precharge:
			st.open = false
		case trace.ReadCmd, trace.WriteCmd:
			if !st.open || st.row != e.Row {
				t.Fatalf("bank %d ib %d: access to row %d with open=%v row=%d",
					e.Bank, e.IBank, e.Row, st.open, st.row)
			}
			if e.Auto {
				st.open = false
			}
		}
	}
}

// TestInvariantAccessCounts: the event stream carries exactly one column
// access per vector element.
func TestInvariantAccessCounts(t *testing.T) {
	cmds := mixedTrace()
	log, _ := tracedRun(t, cmds)
	reads := len(log.ByKind(trace.ReadCmd))
	writes := len(log.ByKind(trace.WriteCmd))
	var wantR, wantW int
	for _, c := range cmds {
		if c.Op == Read {
			wantR += int(c.V.Length)
		} else {
			wantW += int(c.V.Length)
		}
	}
	if reads != wantR || writes != wantW {
		t.Fatalf("events: %d reads %d writes, want %d/%d", reads, writes, wantR, wantW)
	}
}

// TestInvariantBroadcastPerCommand: each trace command produces exactly
// one broadcast and one completion event.
func TestInvariantBroadcastPerCommand(t *testing.T) {
	cmds := mixedTrace()
	log, _ := tracedRun(t, cmds)
	if got := len(log.ByKind(trace.Broadcast)); got != len(cmds) {
		t.Errorf("%d broadcasts for %d commands", got, len(cmds))
	}
	if got := len(log.ByKind(trace.TxnComplete)); got != len(cmds) {
		t.Errorf("%d completions for %d commands", got, len(cmds))
	}
}

// TestInvariantParallelBanks: a stride-19 gather issues its first
// element accesses on many banks within a handful of cycles of each
// other — the parallelism the broadcast exists to create.
func TestInvariantParallelBanks(t *testing.T) {
	log, _ := tracedRun(t, []VectorCmd{
		{Op: Read, V: Vector{Base: 0, Stride: 19, Length: 32}},
	})
	first := map[int]uint64{}
	for _, e := range log.Events {
		if e.Kind != trace.ReadCmd {
			continue
		}
		if _, ok := first[e.Bank]; !ok {
			first[e.Bank] = e.Cycle
		}
	}
	if len(first) != 16 {
		t.Fatalf("stride-19 read touched %d banks, want 16", len(first))
	}
	var min, max uint64 = ^uint64(0), 0
	for _, c := range first {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 4 {
		t.Errorf("first accesses spread over %d cycles; banks not operating in tandem", max-min)
	}
}

func TestTraceDumpFormat(t *testing.T) {
	log, _ := tracedRun(t, mixedTrace()[:1])
	var buf bytes.Buffer
	DumpTrace(&buf, log)
	out := buf.String()
	for _, want := range []string{"BCAST", "ACT", "RD", "STG_RD", "DONE"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}
