// Staging Units (Section 5.2.2): per-transaction buffers that assemble
// gathered read words into cache-line order and hold scattered write
// lines until the scheduler consumes them. One read and one write buffer
// per outstanding transaction — the 2 KB of on-chip RAM in the
// prototype's synthesis summary (Table 1).
//
// Buffers are recycled, never reallocated: openRead/putWrite reuse the
// capacity left behind by earlier transactions (the hardware's fixed
// staging RAM), so a warmed-up controller stages lines without touching
// the allocator.

package bankctl

import (
	"pva/internal/bus"
	"pva/internal/fault"
)

type readStage struct {
	open     bool
	expected uint32
	seen     uint64   // dup-detect bitmask for element indices < 64
	idxs     []uint32 // element indices, arrival order
	words    []uint32 // data, parallel to idxs
}

type writeStage struct {
	valid bool
	buf   []uint32
}

type staging struct {
	reads  [bus.MaxTransactions]readStage
	writes [bus.MaxTransactions]writeStage
}

func newStaging() *staging { return &staging{} }

// reset clears every transaction's staging state, keeping buffer
// capacity for the next session.
func (s *staging) reset() {
	for t := range s.reads {
		s.release(t)
	}
}

// openRead arms the read staging buffer for txn, expecting count words.
func (s *staging) openRead(txn int, count uint32) {
	r := &s.reads[txn]
	r.open = true
	r.expected = count
	r.seen = 0
	r.idxs = r.idxs[:0]
	r.words = r.words[:0]
}

// putRead stores one returned word; reports true exactly once, when the
// last expected word arrives (the staging unit then deasserts its
// transaction-complete line).
func (s *staging) putRead(txn int, idx, data uint32) bool {
	r := &s.reads[txn]
	if !r.open {
		fault.Invariantf("bankctl", "read data for closed txn %d", txn)
	}
	if idx < 64 {
		if r.seen&(1<<idx) != 0 {
			fault.Invariantf("bankctl", "duplicate read word for txn %d elem %d", txn, idx)
		}
		r.seen |= 1 << idx
	} else {
		for _, have := range r.idxs {
			if have == idx {
				fault.Invariantf("bankctl", "duplicate read word for txn %d elem %d", txn, idx)
			}
		}
	}
	r.idxs = append(r.idxs, idx)
	r.words = append(r.words, data)
	return uint32(len(r.words)) == r.expected
}

// collect copies gathered words into the dense line; returns the count.
func (s *staging) collect(txn int, line []uint32) int {
	r := &s.reads[txn]
	if !r.open {
		return 0
	}
	if uint32(len(r.words)) != r.expected {
		fault.Invariantf("bankctl", "collecting txn %d before completion (%d/%d)", txn, len(r.words), r.expected)
	}
	for k, idx := range r.idxs {
		if idx >= uint32(len(line)) {
			fault.Invariantf("bankctl", "txn %d element %d outside line of %d", txn, idx, len(line))
		}
		line[idx] = r.words[k]
	}
	return len(r.words)
}

// putWrite buffers the dense write line for txn (STAGE_WRITE data),
// copying into the unit's own storage — the caller's slice is never
// retained.
func (s *staging) putWrite(txn int, line []uint32) {
	w := &s.writes[txn]
	w.buf = append(w.buf[:0], line...)
	w.valid = true
}

// takeWrite returns the word for one element of a staged write.
func (s *staging) takeWrite(txn int, elem uint32) (uint32, bool) {
	w := &s.writes[txn]
	if !w.valid || elem >= uint32(len(w.buf)) {
		return 0, false
	}
	return w.buf[elem], true
}

// release clears all staging state for a retired transaction, keeping
// buffer capacity for the next one.
func (s *staging) release(txn int) {
	r := &s.reads[txn]
	r.open = false
	r.expected = 0
	r.seen = 0
	r.idxs = r.idxs[:0]
	r.words = r.words[:0]
	s.writes[txn].valid = false
}
