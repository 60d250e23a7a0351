package bus

import "testing"

func TestBusReserveSequential(t *testing.T) {
	b := New()
	if got := b.Free(0, Controller); got != 0 {
		t.Fatalf("Free on idle bus = %d", got)
	}
	if err := b.Reserve(0, 1, Controller); err != nil {
		t.Fatal(err)
	}
	if got := b.Free(0, Controller); got != 1 {
		t.Fatalf("Free after 1-cycle tenure = %d", got)
	}
	if err := b.Reserve(1, 16, Controller); err != nil {
		t.Fatal(err)
	}
	if b.BusyUntil() != 17 || b.BusyCycles() != 17 {
		t.Fatalf("busyUntil=%d busyCycles=%d", b.BusyUntil(), b.BusyCycles())
	}
}

func TestBusTurnaroundOnOwnershipChange(t *testing.T) {
	b := New()
	if err := b.Reserve(0, 1, Controller); err != nil {
		t.Fatal(err)
	}
	// Banks now need a turnaround cycle: earliest start is 2, not 1.
	if got := b.Free(0, Banks); got != 2 {
		t.Fatalf("Free for Banks = %d, want 2", got)
	}
	if err := b.Reserve(1, 16, Banks); err == nil {
		t.Fatal("reservation ignoring turnaround accepted")
	}
	if err := b.Reserve(2, 16, Banks); err != nil {
		t.Fatal(err)
	}
	if b.TurnaroundCycles() != 1 {
		t.Fatalf("turnarounds = %d, want 1", b.TurnaroundCycles())
	}
	// Same owner again: no turnaround.
	if got := b.Free(0, Banks); got != 18 {
		t.Fatalf("Free same owner = %d, want 18", got)
	}
}

func TestBusOverlapRejected(t *testing.T) {
	b := New()
	if err := b.Reserve(0, 10, Controller); err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(5, 1, Controller); err == nil {
		t.Fatal("overlapping reservation accepted")
	}
	if err := b.Reserve(10, 0, Controller); err == nil {
		t.Fatal("zero-length reservation accepted")
	}
}

func TestBoardLifecycle(t *testing.T) {
	bd := NewBoard(16)
	txn, ok := bd.Alloc()
	if !ok {
		t.Fatal("alloc failed on empty board")
	}
	bd.Open(txn, bd.AllBanks())
	if bd.AllDone(txn) {
		t.Fatal("AllDone immediately after Open")
	}
	for bank := uint32(0); bank < 16; bank++ {
		bd.Done(bank, txn)
	}
	if !bd.AllDone(txn) {
		t.Fatal("not AllDone after all banks reported")
	}
	bd.Release(txn)
	if got, ok := bd.Alloc(); !ok || got != txn {
		t.Fatalf("released txn not reusable: got %d ok=%v", got, ok)
	}
}

func TestBoardDoneIdempotent(t *testing.T) {
	bd := NewBoard(4)
	txn, _ := bd.Alloc()
	bd.Open(txn, bd.AllBanks())
	bd.Done(2, txn)
	bd.Done(2, txn) // wired-OR: driving low twice is fine
	bd.Done(0, txn)
	bd.Done(1, txn)
	if bd.AllDone(txn) {
		t.Fatal("AllDone with bank 3 still pending")
	}
	bd.Done(3, txn)
	if !bd.AllDone(txn) {
		t.Fatal("AllDone expected")
	}
}

// TestBoardOwnerMaskAndSettle: Open asserts only the owners' shares,
// the share that empties a line latches that transaction's settle bit
// (a partial Done latches nothing, and a line opened with no owner
// never asserts), and only ClearSettled clears the mask.
func TestBoardOwnerMaskAndSettle(t *testing.T) {
	bd := NewBoard(16)
	a, _ := bd.Alloc()
	b, _ := bd.Alloc()
	c, _ := bd.Alloc()
	bd.Open(a, 1<<3|1<<9)
	bd.Open(b, 1<<5)
	bd.Open(c, 0)
	if !bd.AllDone(c) || bd.Settled() != 0 {
		t.Fatalf("ownerless line: AllDone=%v settled=%#x", bd.AllDone(c), bd.Settled())
	}
	bd.Done(0, a) // not an owner: the line stays asserted
	bd.Done(3, a)
	if bd.AllDone(a) || bd.Settled() != 0 {
		t.Fatalf("bank 9 still owns txn %d: AllDone=%v settled=%#x", a, bd.AllDone(a), bd.Settled())
	}
	bd.Done(5, b)
	bd.Done(9, a)
	if want := uint32(1)<<a | 1<<b; bd.Settled() != want {
		t.Fatalf("settled %#x, want %#x", bd.Settled(), want)
	}
	bd.Done(9, a) // idempotent: no second edge to latch
	bd.ClearSettled()
	if bd.Settled() != 0 {
		t.Fatalf("settled %#x after ClearSettled", bd.Settled())
	}
	for _, txn := range []int{a, b, c} {
		bd.Release(txn)
	}
}

func TestBoardExhaustion(t *testing.T) {
	bd := NewBoard(16)
	for i := 0; i < MaxTransactions; i++ {
		if _, ok := bd.Alloc(); !ok {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if _, ok := bd.Alloc(); ok {
		t.Fatal("ninth transaction allocated")
	}
}

func TestBoardReleasePendingPanics(t *testing.T) {
	bd := NewBoard(8)
	txn, _ := bd.Alloc()
	bd.Open(txn, bd.AllBanks())
	defer func() {
		if recover() == nil {
			t.Fatal("Release with pending banks did not panic")
		}
	}()
	bd.Release(txn)
}

func TestBoardUnallocatedPanics(t *testing.T) {
	bd := NewBoard(8)
	defer func() {
		if recover() == nil {
			t.Fatal("AllDone on unallocated txn did not panic")
		}
	}()
	bd.AllDone(3)
}
