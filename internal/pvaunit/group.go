package pvaunit

import (
	"pva/internal/bankctl"
	"pva/internal/engine"
)

// bcGroup batches one channel's live bank controllers behind one
// engine.Group registration: the engine makes a single interface call
// per cycle and the group ticks its members through concrete
// *bankctl.BC receivers. Members keep lazily advanced local clocks, a
// member whose cached next event lies beyond the cycle is skipped
// (unless strict), and members tick in add order (bank order within
// the channel; the session registers the groups in channel order).
//
// Hard-faulted (offline) controllers are powered off and never added.
type bcGroup struct {
	bcs  []*bankctl.BC
	wake []uint64 // cached NextEventAt per member
	h    *engine.GroupHandle
}

// add appends a member and returns its index; members tick in add order.
func (g *bcGroup) add(bc *bankctl.BC) int {
	g.bcs = append(g.bcs, bc)
	g.wake = append(g.wake, 0) // due immediately
	return len(g.bcs) - 1
}

// reset marks every member due immediately, for session reuse.
func (g *bcGroup) reset() {
	for i := range g.wake {
		g.wake[i] = 0
	}
}

// Wake schedules member m to tick no later than cycle at, pulling the
// engine's group-wide bound down with it.
func (g *bcGroup) Wake(m int, at uint64) {
	if g.wake[m] > at {
		g.wake[m] = at
	}
	g.h.Wake(at)
}

// Step implements engine.Group: tick every member due at cycle (every
// member when strict), catching lazily-skipped local clocks up first,
// and return the earliest next event across the group.
func (g *bcGroup) Step(cycle uint64, strict bool) (uint64, error) {
	next := uint64(engine.NoEvent)
	for i, bc := range g.bcs {
		if !strict && g.wake[i] > cycle {
			if g.wake[i] < next {
				next = g.wake[i]
			}
			continue
		}
		if lag := bc.CycleNow(); lag < cycle {
			if err := bc.AdvanceIdle(cycle - lag); err != nil {
				return 0, err
			}
		}
		if err := bc.Tick(); err != nil {
			return 0, err
		}
		w := bc.NextEventAt()
		g.wake[i] = w
		if w < next {
			next = w
		}
	}
	return next, nil
}
