package bankctl

import (
	"testing"

	"pva/internal/bus"
	"pva/internal/core"
	"pva/internal/memsys"
)

// rig wires one bank controller to a board and store for direct-drive
// tests.
type rig struct {
	bc    *BC
	board *bus.Board
	store *memsys.Store
}

func newRig(t *testing.T, bank uint32) *rig {
	t.Helper()
	store := memsys.NewStore()
	board := bus.NewBoard(16)
	return &rig{bc: New(PaperConfig(bank), store, board), board: board, store: store}
}

// startRead opens a transaction and broadcasts a read to the single BC.
func (r *rig) startRead(v core.Vector) int {
	txn, ok := r.board.Alloc()
	if !ok {
		panic("no txn")
	}
	r.board.Open(txn)
	// The other 15 banks would deassert on their own; emulate them.
	for b := uint32(0); b < 16; b++ {
		if b != r.bc.cfg.Bank {
			r.board.Done(b, txn)
		}
	}
	r.bc.ObserveCommand(memsys.Read, v, nil, nil, txn)
	return txn
}

func (r *rig) tickUntilDone(t *testing.T, txn int, limit int) int {
	t.Helper()
	for i := 0; i < limit; i++ {
		if err := r.bc.Tick(); err != nil {
			t.Fatal(err)
		}
		if r.board.AllDone(txn) {
			return i + 1
		}
	}
	t.Fatalf("txn %d not done after %d cycles", txn, limit)
	return 0
}

func TestNoHitDeassertsImmediately(t *testing.T) {
	r := newRig(t, 5)
	// Stride 16 from bank 0: everything stays in bank 0; bank 5 sees no
	// elements and must deassert at once.
	txn := r.startRead(core.Vector{Base: 0, Stride: 16, Length: 32})
	if !r.board.AllDone(txn) {
		t.Fatal("no-hit bank did not deassert immediately")
	}
	if r.bc.Busy() {
		t.Fatal("no-hit bank has queued work")
	}
	if s := r.bc.Stats(); s.NoHitCommands != 1 || s.Requests != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSingleBankReadCompletes(t *testing.T) {
	r := newRig(t, 0)
	txn := r.startRead(core.Vector{Base: 0, Stride: 16, Length: 32})
	cycles := r.tickUntilDone(t, txn, 200)
	// 32 row-hit reads at one per cycle plus dispatch, activate, tRCD
	// and CAS drain: mid-40s.
	if cycles < 32 || cycles > 60 {
		t.Errorf("single-bank 32-element read took %d cycles", cycles)
	}
	line := make([]uint32, 32)
	if got := r.bc.CollectRead(txn, line); got != 32 {
		t.Fatalf("collected %d words", got)
	}
	for i := uint32(0); i < 32; i++ {
		if line[i] != memsys.Fill(i*16) {
			t.Fatalf("word %d = %#x, want Fill(%d)", i, line[i], i*16)
		}
	}
}

func TestSubcommandGenerationLatency(t *testing.T) {
	// Section 3.1 claims subcommand generation takes at most five memory
	// cycles for non-power-of-two strides and two cycles for powers of
	// two. Measure cycles from broadcast to the first SDRAM command.
	for _, tc := range []struct {
		stride uint32
		limit  int
	}{
		{1, 2}, {2, 2}, {4, 2}, {8, 2}, {16, 2}, // powers of two
		{3, 5}, {5, 5}, {7, 5}, {19, 5}, {25, 5}, // general strides
	} {
		r := newRig(t, 0)
		r.startRead(core.Vector{Base: 0, Stride: tc.stride, Length: 32})
		issued := -1
		for i := 1; i <= 10; i++ {
			if err := r.bc.Tick(); err != nil {
				t.Fatal(err)
			}
			if r.bc.Device().Stats().Activates > 0 {
				issued = i
				break
			}
		}
		if issued < 0 {
			t.Fatalf("stride %d: no SDRAM command within 10 cycles", tc.stride)
		}
		// ObserveCommand happens in the same cycle as the first Tick, so
		// tick i is cycle i-1 and `issued` ticks equals the paper's
		// cycle count including the broadcast cycle.
		got := issued
		if got > tc.limit {
			t.Errorf("stride %d: subcommand generation took %d cycles, paper bound %d",
				tc.stride, got, tc.limit)
		}
	}
}

func TestFHCHandlesNonPow2Address(t *testing.T) {
	r := newRig(t, 3)
	// stride 19 from base 0: bank 3 holds... FirstHit via math.
	g := core.MustGeometry(16)
	v := core.Vector{Base: 0, Stride: 19, Length: 32}
	first := g.FirstHit(v, 3)
	if first == core.NoHit {
		t.Fatal("test setup: bank 3 has no hit")
	}
	txn := r.startRead(v)
	r.tickUntilDone(t, txn, 100)
	line := make([]uint32, 32)
	n := r.bc.CollectRead(txn, line)
	if n != 2 { // 32 elements over 16 banks = 2 per bank
		t.Fatalf("bank 3 gathered %d words", n)
	}
	if line[first] != memsys.Fill(v.Addr(first)) {
		t.Fatalf("first-hit word wrong")
	}
	if s := r.bc.Stats(); s.FHCCalcs != 1 || s.FHPPow2 != 0 {
		t.Errorf("stats = %+v (expected FHC path)", s)
	}
}

func TestWriteCommitsAndDeasserts(t *testing.T) {
	r := newRig(t, 0)
	txn, _ := r.board.Alloc()
	r.board.Open(txn)
	for b := uint32(1); b < 16; b++ {
		r.board.Done(b, txn)
	}
	line := make([]uint32, 32)
	for i := range line {
		line[i] = 0x700 + uint32(i)
	}
	r.bc.StageWriteData(txn, line)
	v := core.Vector{Base: 0, Stride: 16, Length: 32}
	r.bc.ObserveCommand(memsys.Write, v, nil, nil, txn)
	r.tickUntilDone(t, txn, 200)
	for i := uint32(0); i < 32; i++ {
		if got := r.store.Read(v.Addr(i)); got != 0x700+i {
			t.Fatalf("element %d = %#x", i, got)
		}
	}
}

func TestWriteWithoutStagedDataErrors(t *testing.T) {
	r := newRig(t, 0)
	txn, _ := r.board.Alloc()
	r.board.Open(txn)
	r.bc.ObserveCommand(memsys.Write, core.Vector{Base: 0, Stride: 16, Length: 4}, nil, nil, txn)
	var err error
	for i := 0; i < 20 && err == nil; i++ {
		err = r.bc.Tick()
	}
	if err == nil {
		t.Fatal("write without staged data did not error")
	}
}

func TestRegisterFileOverflowPanics(t *testing.T) {
	r := newRig(t, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("register file overflow did not panic")
		}
	}()
	for i := 0; i < 9; i++ {
		txn := i % bus.MaxTransactions
		if i < bus.MaxTransactions {
			txn, _ = r.board.Alloc()
		}
		r.board.Open(txn)
		r.bc.ObserveCommand(memsys.Read, core.Vector{Base: 0, Stride: 16, Length: 32}, nil, nil, txn)
	}
}

func TestPolarityStallsCounted(t *testing.T) {
	r := newRig(t, 0)
	// Read then write to the same bank: the write must wait for the
	// read's data bus tenure plus a turnaround.
	txnR := r.startRead(core.Vector{Base: 0, Stride: 16, Length: 32})
	txnW, _ := r.board.Alloc()
	r.board.Open(txnW)
	for b := uint32(1); b < 16; b++ {
		r.board.Done(b, txnW)
	}
	line := make([]uint32, 32)
	r.bc.StageWriteData(txnW, line)
	r.bc.ObserveCommand(memsys.Write, core.Vector{Base: 1 << 12, Stride: 16, Length: 32}, nil, nil, txnW)
	r.tickUntilDone(t, txnR, 300)
	r.tickUntilDone(t, txnW, 300)
	if s := r.bc.Stats(); s.PolarityStalls == 0 {
		t.Errorf("expected polarity stalls, stats = %+v", s)
	}
}

func TestRowPolicySwap(t *testing.T) {
	// Closed-page should produce more precharges than the paper policy
	// on a row-friendly access pattern.
	run := func(pol RowPolicy) uint64 {
		r := newRig(t, 0)
		if pol != nil {
			r.bc.SetRowPolicy(pol)
		}
		txn := r.startRead(core.Vector{Base: 0, Stride: 16, Length: 32})
		r.tickUntilDone(t, txn, 300)
		return r.bc.Device().Stats().Precharges
	}
	if def, closed := run(nil), run(ClosedPage{}); closed <= def {
		t.Errorf("closed-page precharges (%d) not above default (%d)", closed, def)
	}
}

func TestManageRowDecisionTable(t *testing.T) {
	m := ManageRow{}
	cases := []struct {
		d    RowDecision
		want bool
	}{
		// Request complete, someone else still hitting: leave open.
		{RowDecision{RequestComplete: true, MoreHitPredict: true}, false},
		// Request complete, another row wanted: close.
		{RowDecision{RequestComplete: true, ClosePredict: true}, true},
		// Request complete, predictor says close.
		{RowDecision{RequestComplete: true, AutoPredict: true}, true},
		// Request complete, no signals: leave open.
		{RowDecision{RequestComplete: true}, false},
		// Mid-request, next element same row: leave open.
		{RowDecision{NextSelfSameRow: true}, false},
		// Mid-request, moving to another row, nobody needs this one: close.
		{RowDecision{}, true},
		// Mid-request, another VC needs this row: leave open.
		{RowDecision{MoreHitPredict: true}, false},
	}
	for i, c := range cases {
		if got := m.AutoPrecharge(c.d); got != c.want {
			t.Errorf("case %d %+v: AutoPrecharge = %v, want %v", i, c.d, got, c.want)
		}
	}
	if (ClosedPage{}).AutoPrecharge(RowDecision{}) != true {
		t.Error("closed page must always precharge")
	}
	if (OpenPage{}).AutoPrecharge(RowDecision{ClosePredict: true}) != false {
		t.Error("open page must never auto-precharge")
	}
}

func TestPolicyNames(t *testing.T) {
	if (PaperPolicy{}).Name() == "" || (ManageRow{}).Name() == "" ||
		(ClosedPage{}).Name() == "" || (OpenPage{}).Name() == "" {
		t.Error("empty policy name")
	}
	if !(PaperPolicy{}).PromoteRowOps() {
		t.Error("paper policy must promote row ops")
	}
	if (PaperPolicy{}).Pick(make([]Candidate, 3)) != 0 {
		t.Error("paper policy must pick the oldest")
	}
}

func TestStaticModeNoRowOps(t *testing.T) {
	store := memsys.NewStore()
	board := bus.NewBoard(16)
	cfg := PaperConfig(0)
	cfg.Static = true
	bc := New(cfg, store, board)
	txn, _ := board.Alloc()
	board.Open(txn)
	for b := uint32(1); b < 16; b++ {
		board.Done(b, txn)
	}
	bc.ObserveCommand(memsys.Read, core.Vector{Base: 0, Stride: 16, Length: 32}, nil, nil, txn)
	for i := 0; i < 100 && !board.AllDone(txn); i++ {
		if err := bc.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if !board.AllDone(txn) {
		t.Fatal("static read never completed")
	}
	ds := bc.Device().Stats()
	if ds.Activates != 0 || ds.Precharges != 0 {
		t.Errorf("static device saw row ops: %+v", ds)
	}
}

func TestDebugStringQuietWhenIdle(t *testing.T) {
	r := newRig(t, 0)
	if r.bc.DebugString() != "" {
		t.Error("idle controller produced debug output")
	}
}
