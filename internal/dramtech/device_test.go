package dramtech

import (
	"errors"
	"testing"

	"pva/internal/addr"
	"pva/internal/memsys"
)

func testDevice() (*Device, *memsys.Store) {
	store := memsys.NewStore()
	geom := addr.MustSDRAMGeom(4, 512, 8192)
	return NewDevice(geom, PaperTiming(), Spec{}, store, 0, 16), store
}

// run issues a scripted sequence: each step is (cycle, request); nops in
// between. Returns collected read results keyed by delivery cycle.
func run(t *testing.T, d *Device, steps map[uint64]Request, until uint64) map[uint64][]ReadResult {
	t.Helper()
	out := make(map[uint64][]ReadResult)
	for c := uint64(0); c < until; c++ {
		if r, ok := steps[c]; ok {
			if err := d.Issue(r); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
		// Tick returns the device's reusable buffer, overwritten by the
		// next Tick: copy what this harness retains across cycles.
		if res := d.Tick(); len(res) > 0 {
			out[c] = append([]ReadResult(nil), res...)
		}
	}
	return out
}

func TestActivateReadTiming(t *testing.T) {
	d, _ := testDevice()
	// ACT at 0; first READ legal at cycle 2 (tRCD); data out at 4 (CL).
	res := run(t, d, map[uint64]Request{
		0: {Cmd: Activate, IBank: 0, Row: 5},
		2: {Cmd: Read, IBank: 0, Row: 5, Col: 7, Tag: 42},
	}, 10)
	got, ok := res[4]
	if !ok || len(got) != 1 {
		t.Fatalf("read data not delivered at cycle 4: %v", res)
	}
	if got[0].Tag != 42 {
		t.Errorf("tag = %d, want 42", got[0].Tag)
	}
	// The address read: bank 0 of 16, bankWord = row5*2048 + col7 -> word addr *16.
	wantAddr := (uint32(5)*4*512 + 7) * 16
	if got[0].Data != memsys.Fill(wantAddr) {
		t.Errorf("data = %#x, want Fill(%d) = %#x", got[0].Data, wantAddr, memsys.Fill(wantAddr))
	}
}

func TestReadBeforeTRCDRejected(t *testing.T) {
	d, _ := testDevice()
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 1}); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	if err := d.Issue(Request{Cmd: Read, IBank: 0, Row: 1, Col: 0}); err == nil {
		t.Fatal("READ one cycle after ACT accepted; tRCD=2 should reject")
	}
}

func TestReadClosedBankRejected(t *testing.T) {
	d, _ := testDevice()
	if err := d.Issue(Request{Cmd: Read, IBank: 0, Col: 0}); err == nil {
		t.Fatal("READ to precharged bank accepted")
	}
}

func TestActivateOpenBankRejected(t *testing.T) {
	d, _ := testDevice()
	if err := d.Issue(Request{Cmd: Activate, IBank: 2, Row: 1}); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	if err := d.Issue(Request{Cmd: Activate, IBank: 2, Row: 2}); err == nil {
		t.Fatal("ACT to open bank accepted; must precharge first")
	}
}

func TestPrechargeThenActivateTiming(t *testing.T) {
	d, _ := testDevice()
	steps := map[uint64]Request{
		0: {Cmd: Activate, IBank: 0, Row: 1},
		2: {Cmd: Precharge, IBank: 0},
	}
	for c := uint64(0); c < 4; c++ {
		if r, ok := steps[c]; ok {
			if err := d.Issue(r); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
		d.Tick()
	}
	// cycle is now 4 = 2 (PRE) + tRP: ACT legal again.
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 2}); err != nil {
		t.Fatalf("ACT after tRP rejected: %v", err)
	}
}

func TestActivateDuringPrechargeRejected(t *testing.T) {
	d, _ := testDevice()
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 1}); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	d.Tick()
	if err := d.Issue(Request{Cmd: Precharge, IBank: 0}); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 2}); err == nil {
		t.Fatal("ACT during tRP accepted")
	}
}

func TestPrechargeBeforeTRCDRejected(t *testing.T) {
	d, _ := testDevice()
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 1}); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	if err := d.Issue(Request{Cmd: Precharge, IBank: 0}); err == nil {
		t.Fatal("PRE one cycle after ACT accepted")
	}
}

func TestTwoCommandsSameCycleRejected(t *testing.T) {
	d, _ := testDevice()
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Issue(Request{Cmd: Activate, IBank: 1, Row: 1}); err == nil {
		t.Fatal("two commands in one cycle accepted")
	}
	// NOP is always fine.
	if err := d.Issue(Request{Cmd: Nop}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedReadsStreamOnePerCycle(t *testing.T) {
	d, _ := testDevice()
	steps := map[uint64]Request{
		0: {Cmd: Activate, IBank: 0, Row: 0},
	}
	for i := uint64(0); i < 8; i++ {
		steps[2+i] = Request{Cmd: Read, IBank: 0, Row: 0, Col: uint32(i), Tag: i}
	}
	res := run(t, d, steps, 16)
	for i := uint64(0); i < 8; i++ {
		got, ok := res[4+i]
		if !ok || len(got) != 1 || got[0].Tag != i {
			t.Fatalf("read %d not delivered at cycle %d: %v", i, 4+i, res)
		}
	}
}

func TestWriteThenReadBack(t *testing.T) {
	d, store := testDevice()
	steps := map[uint64]Request{
		0: {Cmd: Activate, IBank: 1, Row: 3},
		2: {Cmd: Write, IBank: 1, Row: 3, Col: 9, Data: 0xabcd1234},
		3: {Cmd: Read, IBank: 1, Row: 3, Col: 9, Tag: 1},
	}
	res := run(t, d, steps, 10)
	got := res[5]
	if len(got) != 1 || got[0].Data != 0xabcd1234 {
		t.Fatalf("read-after-write = %v, want 0xabcd1234", got)
	}
	// The store address must be the interleaved global word address.
	wantAddr := (uint32(3)*4*512 + 1*512 + 9) * 16
	if v := store.Read(wantAddr); v != 0xabcd1234 {
		t.Errorf("store[%d] = %#x", wantAddr, v)
	}
}

func TestAutoPrecharge(t *testing.T) {
	d, _ := testDevice()
	steps := map[uint64]Request{
		0: {Cmd: Activate, IBank: 0, Row: 1},
		2: {Cmd: Read, IBank: 0, Row: 1, Col: 0, Auto: true},
	}
	run(t, d, steps, 3)
	m := d.Model()
	if _, open := m.OpenRow(m.UnitIndex(0, 1)); open {
		t.Fatal("row still open after auto-precharge read")
	}
	// ACT before tRP elapses must fail (precharge started at cycle 2).
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 2}); err == nil {
		t.Fatal("ACT during auto-precharge accepted")
	}
	d.Tick()
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 2}); err != nil {
		t.Fatalf("ACT after auto-precharge tRP rejected: %v", err)
	}
}

func TestRowMismatchRejected(t *testing.T) {
	d, _ := testDevice()
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 1}); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	d.Tick()
	if err := d.Issue(Request{Cmd: Read, IBank: 0, Row: 2, Col: 0}); err == nil {
		t.Fatal("READ intending wrong row accepted")
	}
}

func TestIndependentInternalBanksOverlap(t *testing.T) {
	d, _ := testDevice()
	// Activate bank 0 and bank 1 on consecutive cycles; both serve reads
	// as soon as their own tRCD elapses.
	steps := map[uint64]Request{
		0: {Cmd: Activate, IBank: 0, Row: 1},
		1: {Cmd: Activate, IBank: 1, Row: 7},
		2: {Cmd: Read, IBank: 0, Row: 1, Col: 0, Tag: 10},
		3: {Cmd: Read, IBank: 1, Row: 7, Col: 0, Tag: 11},
	}
	res := run(t, d, steps, 10)
	if got := res[4]; len(got) != 1 || got[0].Tag != 10 {
		t.Fatalf("bank 0 read: %v", got)
	}
	if got := res[5]; len(got) != 1 || got[0].Tag != 11 {
		t.Fatalf("bank 1 read: %v", got)
	}
}

func TestStats(t *testing.T) {
	d, _ := testDevice()
	steps := map[uint64]Request{
		0: {Cmd: Activate, IBank: 0, Row: 1},
		2: {Cmd: Read, IBank: 0, Row: 1, Col: 0},
		3: {Cmd: Read, IBank: 0, Row: 1, Col: 1},
		4: {Cmd: Write, IBank: 0, Row: 1, Col: 2, Auto: true},
	}
	run(t, d, steps, 8)
	s := d.Stats()
	if s.Activates != 1 || s.Reads != 2 || s.Writes != 1 || s.Precharges != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.RowHits != 2 { // second read and the write hit the open row
		t.Errorf("row hits = %d, want 2", s.RowHits)
	}
}

func TestBankReadyAt(t *testing.T) {
	d, _ := testDevice()
	if err := d.Issue(Request{Cmd: Activate, IBank: 3, Row: 0}); err != nil {
		t.Fatal(err)
	}
	if got := d.Model().MaxReadyAt(3); got != 2 {
		t.Errorf("MaxReadyAt = %d, want 2", got)
	}
}

func TestSRAMDevice(t *testing.T) {
	store := memsys.NewStore()
	geom := addr.MustSDRAMGeom(4, 512, 8192)
	d := NewDevice(geom, PaperTiming(), Spec{Backend: BackendSRAM}, store, 2, 16)
	// Row commands rejected.
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 0}); err == nil {
		t.Fatal("ACT accepted on the SRAM device")
	}
	// Immediate read, data one cycle later (CL = 1).
	if err := d.Issue(Request{Cmd: Read, IBank: 0, Row: 0, Col: 5, Tag: 9}); err != nil {
		t.Fatal(err)
	}
	if res := d.Tick(); len(res) != 0 {
		t.Fatalf("SRAM read delivered same cycle: %v", res)
	}
	res := d.Tick()
	if len(res) != 1 || res[0].Tag != 9 {
		t.Fatalf("SRAM read results = %v", res)
	}
	wantAddr := uint32(5)*16 + 2
	if res[0].Data != memsys.Fill(wantAddr) {
		t.Errorf("SRAM read data = %#x, want Fill(%d)", res[0].Data, wantAddr)
	}
	// Writes commit immediately.
	if err := d.Issue(Request{Cmd: Write, IBank: 1, Row: 2, Col: 3, Data: 77}); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	addr2 := (uint32(2)*4*512+1*512+3)*16 + 2
	if v := store.Read(addr2); v != 77 {
		t.Errorf("SRAM write: store[%d] = %d, want 77", addr2, v)
	}
}

// TestSRAMRowCommandsProtocolViolation: the SRAM device has no rows,
// so ACT and PRE are command-protocol breaches, not state or timing
// faults.
func TestSRAMRowCommandsProtocolViolation(t *testing.T) {
	for _, cmd := range []Cmd{Activate, Precharge} {
		d := NewDevice(addr.MustSDRAMGeom(4, 512, 8192), PaperTiming(), Spec{Backend: BackendSRAM}, memsys.NewStore(), 0, 16)
		var v *ViolationError
		if err := d.Issue(Request{Cmd: cmd, IBank: 1, Row: 3}); !errors.As(err, &v) || v.Kind != ViolationProtocol {
			t.Errorf("%v on the SRAM device: %v, want a protocol violation", cmd, err)
		}
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	d, _ := testDevice()
	if err := d.Issue(Request{Cmd: Activate, IBank: 9, Row: 0}); err == nil {
		t.Fatal("internal bank 9 accepted")
	}
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 1 << 30}); err == nil {
		t.Fatal("huge row accepted")
	}
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 0}); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	d.Tick()
	if err := d.Issue(Request{Cmd: Read, IBank: 0, Row: 0, Col: 512}); err == nil {
		t.Fatal("column 512 accepted")
	}
}
