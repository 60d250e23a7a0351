package bankctl

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"pva/internal/bus"
	"pva/internal/core"
	"pva/internal/dramtech"
	"pva/internal/fault"
	"pva/internal/memsys"
	"pva/internal/trace"
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
	return newRigWith(PaperConfig(bank))
}

func newRigWith(cfg Config) *rig {
	store := memsys.NewStore()
	board := bus.NewBoard(16)
	return &rig{bc: New(cfg, store, board), board: board, store: store}
}

// observe broadcasts a strided command to the rig's controller in its
// current cycle.
func (r *rig) observe(op memsys.Op, v core.Vector, txn int) {
	if _, err := r.bc.ObserveCommand(r.bc.CycleNow(), op, v, nil, nil, txn); err != nil {
		panic(err)
	}
}

// startRead opens a transaction and broadcasts a read to the single BC.
func (r *rig) startRead(v core.Vector) int {
	txn, ok := r.board.Alloc()
	if !ok {
		panic("no txn")
	}
	r.board.Open(txn, r.board.AllBanks())
	// The other 15 banks would deassert on their own; emulate them.
	for b := uint32(0); b < 16; b++ {
		if b != r.bc.cfg.Bank {
			r.board.Done(b, txn)
		}
	}
	r.observe(memsys.Read, v, txn)
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

// TestObserveCatchesUpOnlyOnHit: a broadcast the bank owns nothing of
// leaves its lagging clock alone; one it owns elements of catches the
// clock up to the broadcast cycle before the request is stamped, so the
// request dispatches the cycle after.
func TestObserveCatchesUpOnlyOnHit(t *testing.T) {
	r := newRig(t, 0)
	for _, c := range []struct {
		now  uint64
		base uint32
		took bool
	}{{5, 1, false}, {9, 0, true}} {
		txn, _ := r.board.Alloc()
		r.board.Open(txn, r.board.AllBanks())
		took, err := r.bc.ObserveCommand(c.now, memsys.Read, core.Vector{Base: c.base, Stride: 16, Length: 32}, nil, nil, txn)
		if err != nil || took != c.took {
			t.Fatalf("broadcast at %d: took %v, %v; want %v", c.now, took, err, c.took)
		}
	}
	if now := r.bc.CycleNow(); now != 9 {
		t.Fatalf("clock at %d after the owned broadcast at 9", now)
	}
	if head := r.bc.queued(0); head.enqueuedAt != 9 {
		t.Fatalf("request stamped at %d, want 9", head.enqueuedAt)
	}
	if err := r.bc.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := r.bc.Tick(); err != nil {
		t.Fatal(err)
	}
	if r.bc.rqfLen != 0 || !r.bc.sched.busy() {
		t.Fatal("request not dispatched the cycle after its broadcast")
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
	r.board.Open(txn, r.board.AllBanks())
	for b := uint32(1); b < 16; b++ {
		r.board.Done(b, txn)
	}
	line := make([]uint32, 32)
	for i := range line {
		line[i] = 0x700 + uint32(i)
	}
	r.bc.StageWriteData(txn, line)
	v := core.Vector{Base: 0, Stride: 16, Length: 32}
	r.observe(memsys.Write, v, txn)
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
	r.board.Open(txn, r.board.AllBanks())
	r.observe(memsys.Write, core.Vector{Base: 0, Stride: 16, Length: 4}, txn)
	var err error
	for i := 0; i < 20 && err == nil; i++ {
		err = r.bc.Tick()
	}
	if err == nil {
		t.Fatal("write without staged data did not error")
	}
}

// TestRegisterFileSlotInvariant: the register file holds one slot per
// transaction ID, so a broadcast naming an ID outside the pool, or an ID
// whose slot is still queued or still held by a vector context, is a
// front-end protocol violation. A slot frees when its context issues
// its last element.
func TestRegisterFileSlotInvariant(t *testing.T) {
	v := core.Vector{Base: 0, Stride: 16, Length: 32}
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			rec := recover()
			ie, ok := rec.(*fault.InvariantError)
			if !ok || ie.Component != "bankctl" || !strings.Contains(ie.Msg, want) {
				t.Fatalf("%s: recovered %v, want a bankctl invariant naming %q", name, rec, want)
			}
		}()
		f()
	}
	for _, txn := range []int{-1, bus.MaxTransactions} {
		r := newRig(t, 0)
		mustPanic(fmt.Sprintf("ID %d", txn), "outside", func() { r.observe(memsys.Read, v, txn) })
	}

	// Queued: a second broadcast with the same ID in the same cycle.
	r := newRig(t, 0)
	txn := r.startRead(v)
	mustPanic("queued slot", "still in use", func() { r.observe(memsys.Read, v, txn) })

	// Held by a vector context: dispatched, elements left to issue. The
	// check fires whether or not the bank owns elements of the new
	// command.
	r = newRig(t, 0)
	txn = r.startRead(v)
	for i := 0; i < 3; i++ {
		if err := r.bc.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if r.bc.rqfLen != 0 || !r.bc.sched.busy() {
		t.Fatalf("setup: rqf %d, window busy %v; want the request in a context", r.bc.rqfLen, r.bc.sched.busy())
	}
	mustPanic("held slot", "still in use", func() { r.observe(memsys.Read, v, txn) })
	mustPanic("held slot, no hit", "still in use", func() { r.observe(memsys.Read, core.Vector{Base: 1, Stride: 16, Length: 32}, txn) })

	// Once the context issued its last element the slot takes the next
	// command for the ID, as the front end reuses it after the retire.
	r.tickUntilDone(t, txn, 200)
	r.board.Release(txn)
	again := r.startRead(v)
	if again != txn {
		t.Fatalf("setup: reused ID %d, want %d", again, txn)
	}
	r.tickUntilDone(t, again, 200)
}

func TestPolarityStallsCounted(t *testing.T) {
	r := newRig(t, 0)
	// Read then write to the same bank: the write must wait for the
	// read's data bus tenure plus a turnaround.
	txnR := r.startRead(core.Vector{Base: 0, Stride: 16, Length: 32})
	txnW, _ := r.board.Alloc()
	r.board.Open(txnW, r.board.AllBanks())
	for b := uint32(1); b < 16; b++ {
		r.board.Done(b, txnW)
	}
	line := make([]uint32, 32)
	r.bc.StageWriteData(txnW, line)
	r.observe(memsys.Write, core.Vector{Base: 1 << 12, Stride: 16, Length: 32}, txnW)
	r.tickUntilDone(t, txnR, 300)
	r.tickUntilDone(t, txnW, 300)
	if s := r.bc.Stats(); s.PolarityStalls == 0 {
		t.Errorf("expected polarity stalls, stats = %+v", s)
	}
}

func TestRowPolicySwap(t *testing.T) {
	// Closed-page should produce more precharges than the paper policy
	// on a row-friendly access pattern.
	run := func(row RowPolicy) uint64 {
		cfg := PaperConfig(0)
		cfg.Policy.Row = row
		r := newRigWith(cfg)
		txn := r.startRead(core.Vector{Base: 0, Stride: 16, Length: 32})
		r.tickUntilDone(t, txn, 300)
		return r.bc.Device().Stats().Precharges
	}
	if def, closed := run(ManageRow), run(ClosedPage); closed <= def {
		t.Errorf("closed-page precharges (%d) not above default (%d)", closed, def)
	}
}

// TestManageRowDecisionTable checks the row policies' auto-precharge
// decisions: ManageRow's decision tree, and the closed-page and
// open-page constants on every row of the same table.
func TestManageRowDecisionTable(t *testing.T) {
	cases := []struct {
		d    rowDecision
		want bool
	}{
		// Request complete, someone else still hitting: leave open.
		{rowDecision{requestComplete: true, moreHitPredict: true}, false},
		// Request complete, another row wanted: close.
		{rowDecision{requestComplete: true, closePredict: true}, true},
		// Request complete, predictor says close.
		{rowDecision{requestComplete: true, autoPredict: true}, true},
		// Request complete, no signals: leave open.
		{rowDecision{requestComplete: true}, false},
		// Mid-request, next element same row: leave open.
		{rowDecision{nextSelfSameRow: true}, false},
		// Mid-request, moving to another row, nobody needs this one: close.
		{rowDecision{}, true},
		// Mid-request, another VC needs this row: leave open.
		{rowDecision{moreHitPredict: true}, false},
	}
	for i, c := range cases {
		var h rowHistory
		if got := ManageRow.autoPrecharge(c.d, &h); got != c.want {
			t.Errorf("case %d %+v: ManageRow auto-precharge = %v, want %v", i, c.d, got, c.want)
		}
		if !ClosedPage.autoPrecharge(c.d, &h) {
			t.Errorf("case %d %+v: closed page must always precharge", i, c.d)
		}
		if OpenPage.autoPrecharge(c.d, &h) {
			t.Errorf("case %d %+v: open page must never auto-precharge", i, c.d)
		}
		if h != (rowHistory{}) {
			t.Errorf("case %d: a stateless row policy wrote the history: %+v", i, h)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	for _, c := range []struct {
		spu, row string
		want     Policy
	}{
		{"", "", Policy{}},
		{"paper", "manage-row", Policy{}},
		{"fcfs", "", Policy{SPU: FCFS}},
		{"", "closed-page", Policy{Row: ClosedPage}},
		{"", "open-page", Policy{Row: OpenPage}},
		{"fcfs", "hotrow", Policy{SPU: FCFS, Row: HotRow}},
	} {
		got, err := ParsePolicy(c.spu, c.row)
		if err != nil || got != c.want {
			t.Errorf("ParsePolicy(%q, %q) = %+v, %v; want %+v", c.spu, c.row, got, err, c.want)
		}
	}
	for _, c := range []struct {
		spu, row string
		valid    []string
	}{
		{"edf", "", spuNames[:]},
		{"shortest-job", "", spuNames[:]},
		{"nope", "", spuNames[:]},
		{"", "nope", rowNames[:]},
	} {
		_, err := ParsePolicy(c.spu, c.row)
		if err == nil {
			t.Errorf("ParsePolicy(%q, %q) accepted", c.spu, c.row)
			continue
		}
		for _, name := range c.valid {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not list %q", err, name)
			}
		}
	}
}

// hotRow feeds the hot-row policy one access whose row hits (or not)
// and reports whether it left the row open.
func hotRow(h *rowHistory, hit bool) (open bool) {
	return !HotRow.autoPrecharge(rowDecision{nextSelfSameRow: hit}, h)
}

func TestHotRowHistoryShifts(t *testing.T) {
	var h rowHistory
	for _, hit := range []bool{true, false, true, true} {
		hotRow(&h, hit)
	}
	// The oldest outcome shifts toward bit 3: T,F,T,T becomes 1011.
	if h.hot != 0xb {
		t.Fatalf("history = %#x, want 0xb", h.hot)
	}
	hotRow(&h, false)
	if h.hot != 0x6 {
		t.Fatalf("history after a miss = %#x, want 0x6", h.hot)
	}
	// Another VC hitting the open row counts as a hit too.
	HotRow.autoPrecharge(rowDecision{moreHitPredict: true}, &h)
	if h.hot != 0xd {
		t.Fatalf("history after a morehit = %#x, want 0xd", h.hot)
	}
}

func TestHotRowMajorityRegister(t *testing.T) {
	for hist := uint8(0); hist < 16; hist++ {
		// Prime the history so that the access under test shifts in
		// hist's low bit on top of hist's upper three bits.
		h := rowHistory{hot: hist >> 1}
		open := hotRow(&h, hist&1 == 1)
		if want := bits.OnesCount8(hist) >= 2; open != want || h.hot != hist {
			t.Errorf("history %04b: open = %v (history %04b), want %v", hist, open, h.hot, want)
		}
	}
}

func TestHotRowAdapts(t *testing.T) {
	var h rowHistory
	var open bool
	for i := 0; i < 4; i++ {
		open = hotRow(&h, true)
	}
	if !open {
		t.Fatal("predictor closes the row after a hit streak")
	}
	for i := 0; i < 4; i++ {
		open = hotRow(&h, false)
	}
	if open {
		t.Fatal("predictor leaves the row open after a miss streak")
	}
	for i := 0; i < 2; i++ {
		open = hotRow(&h, true)
	}
	if !open {
		t.Fatal("predictor does not reopen after two hits")
	}
}

// TestHotRowUnitsIndependent: each row-state unit of each controller
// keeps its own history. A read streaming one internal bank trains only
// that unit, a read of another internal bank leaves the first unit's
// history alone, and a second controller starts cold.
func TestHotRowUnitsIndependent(t *testing.T) {
	cfg := PaperConfig(0)
	cfg.Policy.Row = HotRow
	r := newRigWith(cfg)
	r.tickUntilDone(t, r.startRead(core.Vector{Base: 0, Stride: 16, Length: 32}), 300)
	// 31 accesses whose next element hits the row, then the last one.
	hist := r.bc.sched.hist
	if hist[0].hot != 0xe {
		t.Fatalf("unit 0 history after a row-hit stream = %04b, want 1110", hist[0].hot)
	}
	for u := 1; u < len(hist); u++ {
		if hist[u].hot != 0 {
			t.Fatalf("unit %d trained by unit 0's accesses: %04b", u, hist[u].hot)
		}
	}
	// Internal bank 1 (bank word 512 of bank 0), two accesses to one
	// row: a hit, then the last element.
	r.tickUntilDone(t, r.startRead(core.Vector{Base: 512 * 16, Stride: 16, Length: 2}), 300)
	if hist[0].hot != 0xe || hist[1].hot != 0x2 {
		t.Fatalf("after two accesses to unit 1: unit 0 %04b, unit 1 %04b; want 1110, 0010", hist[0].hot, hist[1].hot)
	}
	if other := newRigWith(cfg); other.bc.sched.hist[0] != (rowHistory{lastOpened: -1}) {
		t.Fatalf("a second controller starts with history %+v", other.bc.sched.hist[0])
	}
	r.bc.Reset()
	if hist[0].hot != 0 {
		t.Fatalf("Reset left unit 0's history at %04b", hist[0].hot)
	}
}

// TestFCFSDefersRowOps: in a cycle with a ready access and a legal row
// op, the paper SPU issues the row op and FCFS issues the access. A
// read streams row hits from internal bank 0 when a second read, to
// internal bank 1, needs an activate.
func TestFCFSDefersRowOps(t *testing.T) {
	run := func(spu SPU) []trace.Event {
		cfg := PaperConfig(0)
		cfg.Policy.SPU = spu
		var evs []trace.Event
		cfg.Observer = func(e trace.Event) { evs = append(evs, e) }
		r := newRigWith(cfg)
		first := r.startRead(core.Vector{Base: 0, Stride: 16, Length: 32})
		for i := 0; i < 8; i++ {
			if err := r.bc.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		second := r.startRead(core.Vector{Base: 512 * 16, Stride: 16, Length: 32})
		r.tickUntilDone(t, first, 300)
		r.tickUntilDone(t, second, 300)
		return evs
	}
	paper, fcfs := run(PaperSPU), run(FCFS)
	at := -1 // the paper SPU's activate for the second read
	for i, e := range paper {
		if e.Kind == trace.Activate && e.IBank == 1 {
			at = i
			break
		}
	}
	if at < 0 {
		t.Fatal("paper SPU never activated internal bank 1")
	}
	if at >= len(fcfs) || !slices.Equal(paper[:at], fcfs[:at]) {
		t.Fatal("the two SPUs diverged before the second read's activate")
	}
	cycle := paper[at].Cycle
	if e := fcfs[at]; e.Cycle != cycle || e.Kind != trace.ReadCmd || e.IBank != 0 {
		t.Fatalf("cycle %d: FCFS issued %+v, want the first read's access", cycle, e)
	}
	if last := paper[len(paper)-1]; last.Cycle <= cycle {
		t.Fatal("the paper SPU's activate did not overlap the first read")
	}
}

func TestSRAMBackendNoRowOps(t *testing.T) {
	store := memsys.NewStore()
	board := bus.NewBoard(16)
	cfg := PaperConfig(0)
	cfg.Tech = dramtech.Spec{Backend: dramtech.BackendSRAM}
	bc := New(cfg, store, board)
	txn, _ := board.Alloc()
	board.Open(txn, board.AllBanks())
	for b := uint32(1); b < 16; b++ {
		board.Done(b, txn)
	}
	if _, err := bc.ObserveCommand(bc.CycleNow(), memsys.Read, core.Vector{Base: 0, Stride: 16, Length: 32}, nil, nil, txn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && !board.AllDone(txn); i++ {
		if err := bc.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if !board.AllDone(txn) {
		t.Fatal("SRAM read never completed")
	}
	ds := bc.Device().Stats()
	if ds.Activates != 0 || ds.Precharges != 0 {
		t.Errorf("SRAM device saw row ops: %+v", ds)
	}
}

func TestDebugStringQuietWhenIdle(t *testing.T) {
	r := newRig(t, 0)
	if r.bc.DebugString() != "" {
		t.Error("idle controller produced debug output")
	}
}
