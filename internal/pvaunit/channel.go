package pvaunit

import (
	"cmp"
	"slices"
)

// channel is one memory channel's dispatch state: everything the front
// end's Step and NextWake read about the channel, kept per channel so a
// step touches only the channels and transactions with an event due.
// Every list holds at most bus.MaxTransactions tickets, and none ever
// reallocates once warm.
type channel struct {
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
	// never added to a controller group, never broadcast to, their
	// elements re-routed through the fallback.
	offline uint64

	nacks   uint64 // broadcasts NACKed
	retries uint64 // broadcasts delivered on a retransmission
	fallbk  uint64 // elements serviced by the fallback

	// Indexed-command accounting, charged at successful broadcast
	// delivery (retransmissions never double-count).
	idxBus      uint64 // bus data cycles carrying index lists
	idxElems    uint64 // elements moved by indexed commands
	idxMaxClaim uint64 // summed per-broadcast max per-bank claims
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

// reset clears the channel's events and counters for session reuse,
// keeping list capacity and the offline mask.
func (q *channel) reset() {
	*q = channel{
		wait:    q.wait[:0],
		stage:   q.stage[:0],
		fb:      q.fb[:0],
		offline: q.offline,
	}
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
