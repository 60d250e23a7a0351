package pvaunit

import "pva/internal/bankctl"

// bcGroup holds one channel's live bank controllers: the session's
// cycle loop steps the group when its group-wide wake is due, and the
// group ticks its due members. Members keep lazily advanced local
// clocks, a member whose cached next event lies beyond the cycle is
// skipped (unless strict), and members tick in add order (bank order
// within the channel; the loop steps the groups in channel order).
//
// Hard-faulted (offline) controllers are powered off and never added.
type bcGroup struct {
	bcs  []*bankctl.BC
	wake []uint64 // cached NextEventAt per member
	due  uint64   // earliest member wake: the next cycle the group must step
}

// add appends a member and returns its index; members tick in add order.
func (g *bcGroup) add(bc *bankctl.BC) int {
	g.bcs = append(g.bcs, bc)
	g.wake = append(g.wake, 0) // due immediately
	return len(g.bcs) - 1
}

// reset marks the group and every member due immediately, for session
// reuse.
func (g *bcGroup) reset() {
	g.due = 0
	for i := range g.wake {
		g.wake[i] = 0
	}
}

// Wake schedules member m to tick no later than cycle at, pulling the
// group-wide wake down with it.
func (g *bcGroup) Wake(m int, at uint64) {
	if g.wake[m] > at {
		g.wake[m] = at
	}
	if g.due > at {
		g.due = at
	}
}

// Step ticks every member due at cycle (every member when strict),
// catching lazily-skipped local clocks up first, and records the
// earliest next event across the group as its wake.
func (g *bcGroup) Step(cycle uint64, strict bool) error {
	next := uint64(bankctl.NoEvent)
	for i, bc := range g.bcs {
		if !strict && g.wake[i] > cycle {
			if g.wake[i] < next {
				next = g.wake[i]
			}
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
		g.wake[i] = w
		if w < next {
			next = w
		}
	}
	g.due = next
	return nil
}
