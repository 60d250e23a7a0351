// Package bus models the split-transaction Vector Bus of Section 5.2.1:
// a shared, multiplexed command/data bus connecting the memory-controller
// front end to the bank controllers, with
//
//   - one command broadcast (VEC_READ, VEC_WRITE, STAGE_READ,
//     STAGE_WRITE) per request cycle,
//   - 64 bits (two words) of data per data cycle — the 128-bit BC bus
//     drives alternate 64-bit halves every other cycle precisely so that
//     BC-to-BC handoffs within a burst need no turnaround cycles,
//   - a turnaround cycle whenever bus *ownership* changes between the
//     memory controller (commands, write data) and the bank controllers
//     (read data), and
//   - eight transaction IDs with a per-transaction "transaction complete"
//     wired-OR line that deasserts once every bank controller has
//     serviced its share.
package bus

import (
	"fmt"

	"pva/internal/fault"
)

// Owner identifies who drives the bus during a cycle.
type Owner uint8

const (
	// None: bus idle.
	None Owner = iota
	// Controller: the memory-controller front end drives (commands and
	// write data).
	Controller
	// Banks: the bank controllers drive (read data).
	Banks
)

// Bus tracks cycle-by-cycle occupancy and ownership of the shared bus.
// Reserve* calls claim the bus for a span of cycles; Free reports the
// first cycle at which a new tenure (for the given owner) may begin,
// including any turnaround cycle an ownership change needs.
type Bus struct {
	busyUntil  uint64 // first free cycle (exclusive end of current tenure)
	lastOwner  Owner
	busyCycles uint64
	turnCycles uint64
}

// New returns an idle bus.
func New() *Bus { return &Bus{} }

// Reset returns the bus to its initial idle state. Cached sessions call
// it on reuse instead of allocating a fresh bus.
func (b *Bus) Reset() { *b = Bus{} }

// Free returns the first cycle >= now at which a tenure by owner may
// start, accounting for the turnaround cycle on ownership change. The
// turnaround cycle immediately follows the previous tenure; if that
// cycle already lies in the past, an idle bus absorbs it for free.
func (b *Bus) Free(now uint64, owner Owner) uint64 {
	start := b.busyUntil
	if b.lastOwner != None && b.lastOwner != owner {
		start++
	}
	if start < now {
		start = now
	}
	return start
}

// Reserve claims the bus for owner for the span [start, start+cycles).
// start must come from Free (or be later); overlapping an existing
// tenure is a programming error.
func (b *Bus) Reserve(start, cycles uint64, owner Owner) error {
	if cycles == 0 {
		return fmt.Errorf("bus: zero-length reservation")
	}
	if start < b.busyUntil {
		return fmt.Errorf("bus: reservation at %d overlaps tenure ending %d", start, b.busyUntil)
	}
	if min := b.Free(start, owner); start < min {
		return fmt.Errorf("bus: reservation at %d ignores turnaround (min %d)", start, min)
	}
	if b.lastOwner != None && b.lastOwner != owner && start == b.busyUntil+1 {
		b.turnCycles++ // the ownership change actually cost a dead cycle
	}
	b.busyUntil = start + cycles
	b.lastOwner = owner
	b.busyCycles += cycles
	return nil
}

// BusyUntil returns the exclusive end of the current tenure: the bus's
// next decision point, the first cycle a new reservation may be
// considered.
func (b *Bus) BusyUntil() uint64 { return b.busyUntil }

// BusyCycles returns total cycles the bus carried traffic.
func (b *Bus) BusyCycles() uint64 { return b.busyCycles }

// TurnaroundCycles returns total ownership-change dead cycles.
func (b *Bus) TurnaroundCycles() uint64 { return b.turnCycles }

// MaxTransactions is the number of outstanding transactions the bus
// supports: three ID bits less... the prototype's Register File "contains
// as many entries as the number of outstanding transactions permitted by
// the BC bus, eight in our implementation."
const MaxTransactions = 8

// Board is the transaction-complete wired-OR: per transaction, the set
// of bank controllers that have not yet finished their share. The line
// "deasserts" (AllDone) when the set empties.
//
// The board also latches every deassertion in a settle mask, one bit
// per transaction: the edges the front end wakes on (Section 5.2.1: it
// acts when a line deasserts), and the transactions it then looks at.
// Done sets a line's bit only on its non-zero to zero transition and
// nothing but ClearSettled clears it, so a partial Done never hides an
// earlier settlement. Only the board's own channel writes it.
type Board struct {
	banks   uint32
	pending []uint64 // bitmask of banks still busy, per txn
	inUse   []bool
	settled uint32 // bit t: txn t's line deasserted since the last ClearSettled
}

// The settle mask holds one bit per transaction ID.
var _ [32 - MaxTransactions]struct{}

// NewBoard returns a board for the given bank count (<= 64).
func NewBoard(banks uint32) *Board {
	if banks == 0 || banks > 64 {
		fault.Invariantf("bus", "bank count %d out of range", banks)
	}
	return &Board{
		banks:   banks,
		pending: make([]uint64, MaxTransactions),
		inUse:   make([]bool, MaxTransactions),
	}
}

// Reset clears every transaction line and ID, returning the board to
// its initial state without reallocating the backing arrays.
func (b *Board) Reset() {
	for t := range b.inUse {
		b.inUse[t] = false
		b.pending[t] = 0
	}
	b.settled = 0
}

// Alloc claims a free transaction ID, or returns false when all eight
// are outstanding.
func (b *Board) Alloc() (int, bool) {
	for t := range b.inUse {
		if !b.inUse[t] {
			b.inUse[t] = true
			b.pending[t] = 0
			return t, true
		}
	}
	return 0, false
}

// Claim marks txn allocated without choosing it: multi-channel front
// ends keep one board per channel in lockstep by Alloc'ing on the first
// board and Claiming the same ID on the rest. Claiming an outstanding
// transaction is a protocol violation.
func (b *Board) Claim(txn int) {
	if txn < 0 || txn >= MaxTransactions {
		fault.Invariantf("bus", "txn %d out of range", txn)
	}
	if b.inUse[txn] {
		fault.Invariantf("bus", "claiming outstanding txn %d", txn)
	}
	b.inUse[txn] = true
	b.pending[txn] = 0
}

// AllBanks returns the owner mask naming every bank on the board.
func (b *Board) AllBanks() uint64 {
	if b.banks == 64 {
		return ^uint64(0)
	}
	return uint64(1)<<b.banks - 1
}

// Open asserts the completion line for txn on the banks in owners (bit
// b: bank b), the controllers that took the broadcast and will each
// deassert once done. The other banks' shares stay deasserted; with no
// owner the line never asserts, and no settle edge is latched.
func (b *Board) Open(txn int, owners uint64) {
	b.check(txn)
	b.pending[txn] = owners & b.AllBanks()
}

// Done deasserts bank's share of txn's completion line. Idempotent, as a
// wired-OR is. The share that empties the line latches txn's settle bit.
func (b *Board) Done(bank uint32, txn int) {
	b.check(txn)
	if p := b.pending[txn]; p != 0 {
		b.pending[txn] = p &^ (uint64(1) << bank)
		if b.pending[txn] == 0 {
			b.settled |= 1 << txn
		}
	}
}

// Settled returns the settle mask: bit t is set when txn t's line has
// deasserted since the last ClearSettled.
func (b *Board) Settled() uint32 { return b.settled }

// ClearSettled empties the settle mask; the line's observer calls it
// once it has taken every settled transaction.
func (b *Board) ClearSettled() { b.settled = 0 }

// AllDone reports whether every bank has deasserted txn's line.
func (b *Board) AllDone(txn int) bool {
	b.check(txn)
	return b.pending[txn] == 0
}

// Release frees the transaction ID for reuse.
func (b *Board) Release(txn int) {
	b.check(txn)
	if b.pending[txn] != 0 {
		fault.Invariantf("bus", "releasing txn %d with banks pending", txn)
	}
	b.inUse[txn] = false
}

func (b *Board) check(txn int) {
	if txn < 0 || txn >= MaxTransactions {
		fault.Invariantf("bus", "txn %d out of range", txn)
	}
	if !b.inUse[txn] {
		fault.Invariantf("bus", "txn %d not allocated", txn)
	}
}
