package engine

import (
	"errors"
	"fmt"
	"testing"

	"pva/internal/fault"
)

// fakeGroup is a one-member group whose member does real work every
// period cycles and records every cycle at which it was ticked non-idly.
// The member keeps a lazily advanced local clock, as a group's members
// must.
type fakeGroup struct {
	cycle  uint64 // the member's local clock
	period uint64
	due    uint64
	events []uint64 // cycles at which the periodic event fired
	ticks  uint64   // total ticks (no-ops included)
}

func newFakeGroup(period, first uint64) *fakeGroup {
	return &fakeGroup{period: period, due: first}
}

// Step implements Group: catch the member's clock up to cycle, failing
// if the skip jumped past its due cycle, then tick it once.
func (g *fakeGroup) Step(cycle uint64, strict bool) (uint64, error) {
	if g.cycle < cycle {
		if cycle > g.due {
			return 0, fmt.Errorf("fakeGroup: idle jump to %d lands past due cycle %d", cycle, g.due)
		}
		g.cycle = cycle
	}
	if g.cycle == g.due {
		g.events = append(g.events, g.cycle)
		g.due += g.period
	}
	g.cycle++
	g.ticks++
	return g.due, nil
}

// fakeDriver completes one unit of work every stride cycles, n units
// total.
type fakeDriver struct {
	n        int
	stride   uint64
	done     int
	progress uint64
	steps    []uint64
}

func (d *fakeDriver) Step(now uint64) error {
	d.steps = append(d.steps, now)
	if d.done < d.n && now == uint64(d.done+1)*d.stride {
		d.done++
		d.progress = now
	}
	return nil
}

func (d *fakeDriver) NextWake(now uint64) uint64 {
	if d.done >= d.n {
		return NoEvent
	}
	next := uint64(d.done+1) * d.stride
	if next < now {
		return now
	}
	return next
}

func (d *fakeDriver) Poked() bool       { return false }
func (d *fakeDriver) Done() bool        { return d.done >= d.n }
func (d *fakeDriver) Progress() uint64  { return d.progress }
func (d *fakeDriver) DebugDump() string { return fmt.Sprintf("fakeDriver: %d of %d done", d.done, d.n) }

// TestIdleSkipEquivalence cross-checks the skipping engine against the
// strict tick-every-cycle loop: identical group event times, identical
// final clocks.
func TestIdleSkipEquivalence(t *testing.T) {
	run := func(disable bool) (*fakeGroup, *fakeDriver, uint64) {
		c := newFakeGroup(7, 3)
		d := &fakeDriver{n: 5, stride: 13}
		e := New(Config{DisableIdleSkip: disable}, d)
		e.RegisterGroup(c)
		if err := e.Run(); err != nil {
			t.Fatalf("run(disable=%v): %v", disable, err)
		}
		return c, d, e.Now()
	}
	cs, ds, ends := run(false)
	cx, dx, endx := run(true)
	if fmt.Sprint(cs.events) != fmt.Sprint(cx.events) {
		t.Errorf("group events diverge: skip=%v strict=%v", cs.events, cx.events)
	}
	if ds.done != dx.done || ds.progress != dx.progress {
		t.Errorf("driver state diverges: skip=%+v strict=%+v", ds, dx)
	}
	if ends != endx {
		t.Errorf("final clock diverges: skip=%d strict=%d", ends, endx)
	}
	if cs.ticks >= cx.ticks {
		t.Errorf("skipping engine ticked %d times, strict %d; expected fewer", cs.ticks, cx.ticks)
	}
}

// TestWatchdog verifies that a driver reporting no progress trips the
// watchdog with a DeadlockError carrying the driver's dump, at the
// cycle the strict loop would trip it.
func TestWatchdog(t *testing.T) {
	for _, disable := range []bool{false, true} {
		d := &fakeDriver{n: 1, stride: NoEvent / 2} // effectively never completes
		e := New(Config{WatchdogCycles: 50, DisableIdleSkip: disable}, d)
		err := e.Run()
		if !errors.Is(err, fault.ErrDeadlock) {
			t.Fatalf("disable=%v: got %v, want ErrDeadlock", disable, err)
		}
		var de *fault.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("disable=%v: error %T lacks DeadlockError", disable, err)
		}
		if de.Cycle != 51 {
			t.Errorf("disable=%v: watchdog fired at cycle %d, want 51", disable, de.Cycle)
		}
		if de.Dump == "" {
			t.Errorf("disable=%v: deadlock dump empty", disable)
		}
	}
}

// TestMaxCycles verifies the hard backstop.
func TestMaxCycles(t *testing.T) {
	d := &fakeDriver{n: 1, stride: NoEvent / 2}
	e := New(Config{MaxCycles: 100}, d)
	err := e.Run()
	var de *fault.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("got %v, want DeadlockError", err)
	}
	if de.Cycle != 101 {
		t.Errorf("backstop fired at cycle %d, want 101", de.Cycle)
	}
}

// TestHandleWake verifies that a driver waking a skipped group through
// its handle forces the group's step on the woken cycle.
func TestHandleWake(t *testing.T) {
	c := newFakeGroup(1000, 1000) // would sleep essentially forever
	d := &wakeDriver{target: 42, c: c}
	e := New(Config{}, d)
	d.h = e.RegisterGroup(c)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if c.cycle < 43 {
		t.Errorf("member clock %d; the wake at 42 should have ticked it through 43", c.cycle)
	}
	if c.ticks == 0 {
		t.Error("member never ticked despite the wake")
	}
}

// wakeDriver idles until cycle target, wakes the group's handle there,
// and finishes once the group's member has been ticked past target.
type wakeDriver struct {
	target   uint64
	h        *GroupHandle
	c        *fakeGroup
	poked    bool
	progress uint64
}

func (d *wakeDriver) Step(now uint64) error {
	d.progress = now
	if now == d.target && !d.poked {
		d.h.Wake(now)
		d.poked = true
	}
	return nil
}

func (d *wakeDriver) NextWake(now uint64) uint64 {
	if !d.poked {
		if d.target < now {
			return now
		}
		return d.target
	}
	return now // spin until Done
}

func (d *wakeDriver) Poked() bool       { return false }
func (d *wakeDriver) Done() bool        { return d.poked && d.c.cycle > d.target }
func (d *wakeDriver) Progress() uint64  { return d.progress }
func (d *wakeDriver) DebugDump() string { return "wakeDriver" }

// TestResumableClock verifies RunWhile leaves the clock where it
// stopped and a later call picks it up — the property Sessions build on.
func TestResumableClock(t *testing.T) {
	d := &fakeDriver{n: 4, stride: 10}
	e := New(Config{}, d)
	if err := e.RunWhile(func() bool { return d.done < 2 }); err != nil {
		t.Fatal(err)
	}
	if d.done != 2 {
		t.Fatalf("first RunWhile stopped with %d done, want 2", d.done)
	}
	mid := e.Now()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d.done != 4 {
		t.Fatalf("resumed run finished %d, want 4", d.done)
	}
	if e.Now() <= mid {
		t.Errorf("clock did not advance across resume: %d -> %d", mid, e.Now())
	}
}

// contractDriver records every cycle it is stepped on. Its own timers
// fire at the wakes it lists; a pokeGroup stepping beside it raises its
// poke line, which the next Step clears. It is done once stepped at or
// past end.
type contractDriver struct {
	wakes []uint64 // ascending
	end   uint64
	poked bool
	done  bool
	steps []uint64
}

func (d *contractDriver) Step(now uint64) error {
	d.steps = append(d.steps, now)
	d.poked = false
	d.done = now >= d.end
	return nil
}

func (d *contractDriver) NextWake(now uint64) uint64 {
	for _, w := range d.wakes {
		if w >= now {
			return w
		}
	}
	return max(d.end, now)
}

func (d *contractDriver) Poked() bool       { return d.poked }
func (d *contractDriver) Done() bool        { return d.done }
func (d *contractDriver) Progress() uint64  { return 0 }
func (d *contractDriver) DebugDump() string { return "contractDriver" }

// pokeGroup is a one-member group busy on every cycle, so the engine
// never skips one, whose member pokes the driver from its tick on the
// listed cycles.
type pokeGroup struct {
	at []uint64
	d  *contractDriver
}

func (g *pokeGroup) Step(cycle uint64, strict bool) (uint64, error) {
	for _, p := range g.at {
		if p == cycle {
			g.d.poked = true
		}
	}
	return cycle + 1, nil
}

// TestLazyDriverContract pins the engine's side of the Driver contract
// while a group keeps every cycle busy: no Step before the wake the
// engine cached from NextWake, a Step on the cycle after a group member
// pokes the driver, and a Step on every cycle under DisableIdleSkip.
func TestLazyDriverContract(t *testing.T) {
	for _, c := range []struct {
		name    string
		disable bool
		want    []uint64
	}{
		// Cycle 0 is due immediately; the timers fire at 10 and 25, the
		// pokes raised during cycles 4 and 17 land on 5 and 18.
		{"lazy", false, []uint64{0, 5, 10, 18, 25, 40}},
		{"strict", true, nil},
	} {
		d := &contractDriver{wakes: []uint64{10, 25}, end: 40}
		e := New(Config{DisableIdleSkip: c.disable}, d)
		e.RegisterGroup(&pokeGroup{at: []uint64{4, 17}, d: d})
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := c.want
		if c.disable {
			for cyc := uint64(0); cyc <= d.end; cyc++ {
				want = append(want, cyc)
			}
		}
		if fmt.Sprint(d.steps) != fmt.Sprint(want) {
			t.Errorf("%s: stepped on %v, want %v", c.name, d.steps, want)
		}
	}
}
