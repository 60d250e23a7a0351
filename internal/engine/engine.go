// Package engine is the shared clocked simulation core the PVA systems
// run on: a deterministic cycle scheduler driving one protocol Driver
// and the component Groups registered beside it, with event-driven
// idle-cycle skipping, lazy group stepping, a forward-progress watchdog,
// and a MaxCycles backstop.
//
// The engine owns the loop a system would otherwise hand-roll:
//
//	check backstops -> Driver.Step(now) when its wake is due -> step due
//	groups -> now++ -> (idle skip) jump now to the earliest next event
//
// A group reports its members' earliest next event; until that cycle
// the group is provably inert and is not stepped at all, and its
// members' local clocks catch up (pure counter increments) the cycle
// they next matter. The driver is lazy the same way: the engine caches
// its NextWake right after each Step and skips Step on earlier cycles
// unless the driver reports an outside event (Poked). Skipped cycles are
// therefore bit-identical to a strict tick-every-cycle loop — the skip
// only elides cycles in which nothing changes state — and
// Config.DisableIdleSkip forces the strict loop, driver included, for
// cross-checking.
//
// The engine is resumable: RunWhile advances until the driver reports
// Done (or the condition releases), and a later call picks the clock up
// where the previous one stopped. That is what the streaming Session
// front end builds on — issue, pump, poll, drain — while the batch
// Run(Trace) path is a single RunWhile to completion.
package engine

import (
	"fmt"

	"pva/internal/fault"
)

// NoEvent is returned by next-event queries when a component is fully
// idle and, absent external stimulus, will never need another cycle.
const NoEvent = ^uint64(0)

// Group is a batch of homogeneous clocked components the engine drives
// through a single interface call per cycle, letting the implementation
// tick its members in a concrete-type loop. Members keep lazily advanced
// local clocks. Step must tick every member due at cycle (every member
// when strict is set), catching a lazily-skipped member's clock up
// first, and return the earliest next event across the group (NoEvent
// when all members are idle): a lower bound, since waking early costs a
// no-op tick, never a timing change. Groups step in registration order.
type Group interface {
	Step(cycle uint64, strict bool) (uint64, error)
}

// Driver is the per-cycle protocol brain the engine runs: the part of a
// memory system that issues work to the components and observes their
// completions.
//
// The engine steps a driver lazily. Right after each Step(now) it caches
// NextWake(now+1), and it calls Step again only on a cycle that reaches
// the cached wake, or on the first cycle after Poked turns true. A
// driver's state may therefore change between two Steps only through
// events it reports by Poked: everything else NextWake reads must be
// the driver's own (its timers, its bus tenures, its bookkeeping).
type Driver interface {
	// Step performs the driver's work for one cycle, before the groups
	// step. The engine calls it on every cycle that reaches the cached
	// NextWake or follows a poke, and on every cycle under
	// DisableIdleSkip; on all other cycles it must be a no-op.
	Step(now uint64) error
	// NextWake returns the earliest cycle >= now at which the driver's
	// own timers may fire (group wakes are tracked by the engine). A
	// lower bound, never an overestimate.
	NextWake(now uint64) uint64
	// Poked reports an outside event since the last Step: a change to
	// state NextWake reads that the driver did not make itself during a
	// Step (a group member's completion signal, new work accepted
	// between pumps). The engine then steps the driver on the next
	// cycle, whatever its cached wake. The driver clears the report in
	// Step.
	Poked() bool
	// Done reports whether all accepted work has retired. The engine
	// stops stepping when Done; a driver may later accept more work and
	// become un-Done, resuming on the next RunWhile.
	Done() bool
	// Progress is the watchdog heartbeat: the latest cycle at which the
	// driver observed forward progress.
	Progress() uint64
	// DebugDump renders the stuck state for deadlock diagnostics.
	DebugDump() string
}

// Config fixes an engine's guard rails.
type Config struct {
	// MaxCycles is the hard backstop: stepping past it returns a
	// *fault.DeadlockError. 0 means effectively unlimited.
	MaxCycles uint64
	// WatchdogCycles arms the forward-progress watchdog: when the clock
	// passes Driver.Progress() by more than this many cycles, the engine
	// returns a *fault.DeadlockError carrying the driver's dump. 0
	// disables the watchdog.
	WatchdogCycles uint64
	// DisableIdleSkip forces the strict tick-every-cycle loop. Cycle
	// counts are bit-identical either way.
	DisableIdleSkip bool
}

// Engine is a deterministic clocked scheduler over one driver and its
// registered groups.
type Engine struct {
	cfg    Config
	d      Driver
	groups []Group
	gwake  []uint64 // cached group-wide next event per group
	dwake  uint64   // cached driver NextWake: the next cycle Step must run
	cycle  uint64
}

// New returns an engine for the driver. Register the groups before the
// first RunWhile.
func New(cfg Config, d Driver) *Engine {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = NoEvent - 1
	}
	return &Engine{cfg: cfg, d: d}
}

// GroupHandle names a registered group; the driver uses it to pull a
// lazily-skipped group's next step forward when it hands any member new
// work mid-cycle.
type GroupHandle struct {
	e *Engine
	i int
}

// RegisterGroup wires a component group into the engine's loop. Groups
// step in registration order, which deterministic simulations care
// about.
func (e *Engine) RegisterGroup(g Group) *GroupHandle {
	e.groups = append(e.groups, g)
	e.gwake = append(e.gwake, e.cycle) // due immediately
	return &GroupHandle{e: e, i: len(e.groups) - 1}
}

// Wake schedules the group to step no later than cycle at. The group is
// responsible for waking the right member; the engine only tracks the
// group-wide bound.
func (h *GroupHandle) Wake(at uint64) {
	if h.e.gwake[h.i] > at {
		h.e.gwake[h.i] = at
	}
}

// Reset rewinds the clock to zero and marks every group due
// immediately, without discarding the registrations. Cached sessions
// call it on reuse after resetting the groups' members themselves.
func (e *Engine) Reset() {
	e.cycle = 0
	e.dwake = 0
	for i := range e.gwake {
		e.gwake[i] = 0
	}
}

// Now returns the engine clock: the next cycle to be stepped.
func (e *Engine) Now() uint64 { return e.cycle }

// RunWhile advances the simulation until the driver reports Done or the
// condition returns false (nil means run to Done). The condition is
// evaluated between cycles, so a caller waiting on an event observes it
// on the exact cycle the driver records it.
func (e *Engine) RunWhile(cond func() bool) error {
	for !e.d.Done() && (cond == nil || cond()) {
		if err := e.step(); err != nil {
			return err
		}
	}
	return nil
}

// Run advances the simulation until the driver reports Done.
func (e *Engine) Run() error { return e.RunWhile(nil) }

// step executes one scheduling iteration: backstops, the driver's cycle
// when due, the due groups' steps, then the clock advance (direct to the
// next event cycle when every group and driver timer is provably idle).
func (e *Engine) step() error {
	cycle := e.cycle
	if cycle > e.cfg.MaxCycles {
		return &fault.DeadlockError{
			Cycle:   cycle,
			Stalled: cycle - e.d.Progress(),
			Dump: fmt.Sprintf("engine: MaxCycles=%d exhausted\n%s",
				e.cfg.MaxCycles, e.d.DebugDump()),
		}
	}
	if wd := e.cfg.WatchdogCycles; wd > 0 && cycle > e.d.Progress()+wd {
		return &fault.DeadlockError{
			Cycle:   cycle,
			Stalled: cycle - e.d.Progress(),
			Dump:    e.d.DebugDump(),
		}
	}
	// Lazy driver: before its cached wake, and absent an outside event,
	// the driver's Step is a provable no-op and is not called at all.
	// The strict loop steps it every cycle and needs no wake.
	if e.cfg.DisableIdleSkip {
		if err := e.d.Step(cycle); err != nil {
			return err
		}
	} else if cycle >= e.dwake || e.d.Poked() {
		if err := e.d.Step(cycle); err != nil {
			return err
		}
		e.dwake = e.d.NextWake(cycle + 1)
	}
	for i, g := range e.groups {
		// Lazy stepping: a group whose cached next event lies beyond this
		// cycle is provably inert and is not stepped at all; its Step
		// applies the same rule to each member using concrete types.
		if !e.cfg.DisableIdleSkip && e.gwake[i] > cycle {
			continue
		}
		next, err := g.Step(cycle, e.cfg.DisableIdleSkip)
		if err != nil {
			return err
		}
		e.gwake[i] = next
	}
	cycle++
	if !e.cfg.DisableIdleSkip && !e.d.Done() {
		// Event-driven idle skipping: when every group wake and driver
		// timer agrees the next state change lies strictly in the future,
		// jump the clock there. Every elided cycle is one in which Step
		// and every group step would have been pure counter increments.
		if next := e.nextWake(cycle); next > cycle {
			// Never jump past an armed watchdog's deadline: the skip must
			// not delay the deadlock report beyond the cycle at which the
			// strict loop would raise it.
			if wd := e.cfg.WatchdogCycles; wd > 0 && next > e.d.Progress()+wd+1 {
				next = e.d.Progress() + wd + 1
			}
			// A deadlocked system reports no wake at all; land just past
			// the backstop so the diagnostic fires instead of jumping the
			// clock to the end of time.
			if next > e.cfg.MaxCycles {
				next = e.cfg.MaxCycles + 1
			}
			cycle = next
		}
	}
	e.cycle = cycle
	return nil
}

// nextWake returns the earliest cycle >= now at which any group or
// driver timer may change state.
func (e *Engine) nextWake(now uint64) uint64 {
	if e.d.Poked() {
		return now // a group member just signalled the driver
	}
	next := e.dwake
	// The wake cache is current: due groups were stepped (and refreshed
	// their entry) in the loop that just ran, and skipped groups' entries
	// still lie in the future by construction.
	for _, w := range e.gwake {
		if w < next {
			next = w
		}
		if next <= now {
			return now
		}
	}
	if next < now {
		return now
	}
	return next
}
