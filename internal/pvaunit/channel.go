package pvaunit

import (
	"cmp"
	"slices"

	"pva/internal/bankctl"
	"pva/internal/bus"
	"pva/internal/dramtech"
	"pva/internal/memsys"
)

// channel is one memory channel of Figure 1: its transaction-complete
// board, its vector bus, the bank controllers behind it, and its
// dispatch state — everything the session's cycle loop and the front
// end's Step and NextWake read about the channel, kept per channel so a
// step touches only the channels and transactions with an event due.
// Every list holds at most bus.MaxTransactions tickets, and none ever
// reallocates once warm.
type channel struct {
	board *bus.Board
	bus   *bus.Bus

	// bcs holds the channel's M bank controllers in bank order, which is
	// their tick order; the loop ticks the channels in channel order.
	// Controllers keep lazily advanced local clocks: wake caches each
	// one's NextEventAt, and due, the earliest of them, is the next cycle
	// the loop must tick the channel. A hard-faulted controller stays in
	// the list but is powered off: never ticked or broadcast to, it holds
	// a NoEvent wake from the channel's first tick on.
	bcs  []*bankctl.BC
	wake []uint64
	due  uint64

	// ten is the channel's one outstanding bus tenure: a broadcast that
	// lands at ten.at, or a STAGE_READ burst whose data ends at ten.at.
	// Only a STAGE_READ end can share its cycle with the next tenure,
	// which Step takes over from it before the channel schedules.
	ten tenure

	// wait holds the issued commands whose share on this channel still
	// has to reserve its broadcast, in ticket order. retryAt is the
	// earliest cycle any of them may: the smallest NACK back-off among
	// them, 0 on a bus that never NACKs.
	wait    []int
	retryAt uint64

	// stage holds the reads gathered by this channel's live banks and
	// waiting for STAGE_READ, in ticket order.
	stage []int

	// fb queues the shares on this channel's serial fallback engine, in
	// broadcast order; their fbDoneAt cycles ascend, so the head is the
	// next to finish. fbBusy is the cycle the engine frees up.
	fb     []int
	fbBusy uint64

	// offline marks the channel's hard-faulted banks (bit b: bank b):
	// never ticked, never broadcast to, their elements re-routed through
	// the fallback.
	offline uint64

	// stats holds the channel's own counters: broadcasts NACKed and
	// delivered on a retransmission, elements serviced by the fallback,
	// and the indexed-command accounting, charged at successful broadcast
	// delivery (retransmissions never double-count). Result adds the
	// device and bus counters.
	stats memsys.Stats
}

// tenure is a channel's outstanding bus tenure.
type tenure struct {
	kind tenureKind
	cmd  int    // the ticket whose tenure it is
	at   uint64 // the broadcast cycle, or the first cycle after STAGE_READ data
}

type tenureKind uint8

const (
	noTenure        tenureKind = iota
	broadcastTenure            // VEC_* (after any index and write bursts) lands at at
	stageTenure                // the STAGE_READ data burst ends at at
)

// reset rewinds the channel for session reuse: the board, the bus and
// every controller return to power-on, every controller is due
// immediately, and the events and counters clear, keeping list capacity
// and the offline mask.
func (q *channel) reset() {
	q.board.Reset()
	q.bus.Reset()
	for _, bc := range q.bcs {
		bc.Reset()
	}
	clear(q.wake)
	*q = channel{
		board:   q.board,
		bus:     q.bus,
		bcs:     q.bcs,
		wake:    q.wake,
		wait:    q.wait[:0],
		stage:   q.stage[:0],
		fb:      q.fb[:0],
		offline: q.offline,
	}
}

// wakeBank schedules bank b to tick no later than cycle at, pulling the
// channel's due cycle down with it.
func (q *channel) wakeBank(b int, at uint64) {
	q.wake[b] = min(q.wake[b], at)
	q.due = min(q.due, at)
}

// tick ticks every live controller due at cycle (every live one when
// strict), catching a lazily skipped local clock up first, and records
// the earliest next event across the channel as its due cycle. The wake
// is checked first: a hard-faulted bank holds a NoEvent wake, so only a
// due bank, or the strict loop, reads the offline mask.
func (q *channel) tick(cycle uint64, strict bool) error {
	next := dramtech.NoEvent
	for b, bc := range q.bcs {
		if !strict && q.wake[b] > cycle {
			if q.wake[b] < next {
				next = q.wake[b]
			}
			continue
		}
		if q.offline&(1<<b) != 0 {
			q.wake[b] = dramtech.NoEvent
			continue
		}
		if lag := bc.CycleNow(); lag < cycle {
			if err := bc.AdvanceIdle(cycle - lag); err != nil {
				return err
			}
		}
		if err := bc.Tick(); err != nil {
			return err
		}
		w := bc.NextEventAt()
		q.wake[b] = w
		if w < next {
			next = w
		}
	}
	q.due = next
	return nil
}

// share names one command's share of the work on one channel.
type share struct{ cmd, ch int }

// addShare inserts s into list, ordered by ticket and then channel,
// unless it is already there.
func addShare(list []share, s share) []share {
	k, found := slices.BinarySearchFunc(list, s, func(a, b share) int {
		return cmp.Or(cmp.Compare(a.cmd, b.cmd), cmp.Compare(a.ch, b.ch))
	})
	if found {
		return list
	}
	return slices.Insert(list, k, s)
}

// addTicket inserts ticket i into the ticket-ordered list.
func addTicket(list []int, i int) []int {
	k, _ := slices.BinarySearch(list, i)
	return slices.Insert(list, k, i)
}

// dropTicket removes ticket i from the ticket-ordered list.
func dropTicket(list []int, i int) []int {
	if k, found := slices.BinarySearch(list, i); found {
		return slices.Delete(list, k, k+1)
	}
	return list
}
