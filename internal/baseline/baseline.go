// Package baseline implements the comparison memory systems of Section
// 6.1:
//
//   - CacheLineSerial: an idealized cache-line interleaved SDRAM system
//     optimized for line fills. Every access becomes whole-line traffic;
//     each fill costs a fixed 20 cycles (2 RAS + 2 CAS + 16-cycle burst
//     over the 64-bit bus), precharge optimistically hidden, and no
//     gathering happens — sparse vectors drag whole lines across the bus.
//   - GatheringSerial: a word-interleaved, closed-page SDRAM system that
//     gathers — it touches only the requested elements — but expands
//     vector addresses serially, one element per cycle, paying precharge
//     plus RAS/CAS once per vector command (RAS overlap assumed for all
//     but the first element, and commands never cross DRAM pages).
//
// Both execute vector-command traces strictly serially in program order,
// which trivially satisfies every dependency, and both move real data so
// the shared correctness tests apply to them too. Since the streaming
// refactor they run on the shared clocked engine (internal/engine) like
// every other system: a serialDriver walks the trace one command at a
// time and the engine's idle skipping collapses each command's cost to a
// single scheduling step, so total cycles are exactly the historical
// sum-of-costs.
package baseline

import (
	"fmt"

	"pva/internal/addrmap"
	"pva/internal/dramtech"
	"pva/internal/engine"
	"pva/internal/memsys"
)

// serialDriver runs a trace strictly serially on the clocked engine:
// command i occupies cycles [S, S+cost) and its data moves when it
// completes, exactly the in-order semantics both baselines share. The
// cost callback is consulted once, when the command starts; apply fires
// once, when it completes.
type serialDriver struct {
	cmds  []memsys.VectorCmd
	cost  func(c memsys.VectorCmd) uint64
	apply func(i int, c memsys.VectorCmd) error

	i        int    // next command to start (or the one in flight)
	active   bool   // command i is in flight
	doneAt   uint64 // cycle the in-flight command completes
	finished uint64 // completion cycle of the last finished command
}

// Step implements engine.Driver.
func (d *serialDriver) Step(now uint64) error {
	if d.active && now == d.doneAt {
		if err := d.apply(d.i, d.cmds[d.i]); err != nil {
			return err
		}
		d.finished = now
		d.i++
		d.active = false
	}
	if !d.active && d.i < len(d.cmds) {
		d.doneAt = now + d.cost(d.cmds[d.i])
		d.active = true
	}
	return nil
}

// NextWake implements engine.Driver: nothing happens before the
// in-flight command completes, so the engine skips straight there.
func (d *serialDriver) NextWake(now uint64) uint64 {
	if d.active {
		return d.doneAt
	}
	return now
}

// Poked implements engine.Driver: a serial baseline has no components
// and takes its whole trace up front, so nothing outside Step changes it.
func (d *serialDriver) Poked() bool { return false }

// Done implements engine.Driver.
func (d *serialDriver) Done() bool { return d.i >= len(d.cmds) }

// Progress implements engine.Driver.
func (d *serialDriver) Progress() uint64 { return d.finished }

// DebugDump implements engine.Driver.
func (d *serialDriver) DebugDump() string {
	return fmt.Sprintf("baseline: command %d of %d in flight (doneAt=%d)", d.i, len(d.cmds), d.doneAt)
}

// runSerial executes the trace on a fresh engine and returns the total
// cycle count (the completion cycle of the last command).
func runSerial(d *serialDriver) (uint64, error) {
	if err := engine.New(engine.Config{}, d).Run(); err != nil {
		return 0, err
	}
	return d.finished, nil
}

// CacheLineSerial is the conventional line-fill memory system.
type CacheLineSerial struct {
	LineWords uint32 // words per cache line (32)
	FillCost  uint64 // cycles per line access (20)
	// Channels spreads line fills round-robin across memory channels
	// (fill i of a command goes to channel lineIndex mod Channels); a
	// command's time is its busiest channel's share. A line-fill system
	// only parallelizes at line granularity, so this models the natural
	// line-interleaved channel map regardless of the PVA decoder choice.
	// 0 or 1: the paper's single-channel system.
	Channels uint32
	store    *memsys.Store
	name     string
}

// NewCacheLineSerial returns the paper's configuration: 128-byte lines,
// 20 cycles per fill.
func NewCacheLineSerial() *CacheLineSerial {
	return &CacheLineSerial{LineWords: 32, FillCost: 20, store: memsys.NewStore(), name: "cacheline-serial"}
}

// NewCacheLineSerialChannels returns the line-fill system with fills
// spread over the given number of memory channels; channels <= 1 is the
// paper's system.
func NewCacheLineSerialChannels(channels uint32) *CacheLineSerial {
	s := NewCacheLineSerial()
	s.Channels = channels
	return s
}

// Name implements memsys.System.
func (s *CacheLineSerial) Name() string { return s.name }

// Peek implements memsys.System.
func (s *CacheLineSerial) Peek(a uint32) uint32 { return s.store.Read(a) }

// clsSnapshot is a CacheLineSerial checkpoint: the configuration by
// value plus an immutable memory image.
type clsSnapshot struct {
	sys CacheLineSerial
	img *memsys.Image
}

// Snapshot implements memsys.Snapshotter.
func (s *CacheLineSerial) Snapshot() memsys.Checkpoint {
	return &clsSnapshot{sys: *s, img: s.store.Snapshot()}
}

// Restore implements memsys.Snapshotter.
func (s *CacheLineSerial) Restore(cp memsys.Checkpoint) error {
	sn, ok := cp.(*clsSnapshot)
	if !ok {
		return fmt.Errorf("baseline: checkpoint %T is not a cacheline-serial snapshot", cp)
	}
	s.store.Restore(sn.img)
	return nil
}

// NewSystem implements memsys.Checkpoint.
func (sn *clsSnapshot) NewSystem() (memsys.System, error) {
	c := sn.sys
	c.store = memsys.NewStoreFrom(sn.img)
	return &c, nil
}

// MemoryImage implements memsys.ImageSnapshotter.
func (s *CacheLineSerial) MemoryImage() *memsys.Image { return s.store.Snapshot() }

// RestoreImage implements memsys.ImageSnapshotter.
func (s *CacheLineSerial) RestoreImage(img *memsys.Image) { s.store.Restore(img) }

// Run implements memsys.System: serial, 20 cycles per distinct line
// touched, in reference order.
func (s *CacheLineSerial) Run(t memsys.Trace) (memsys.Result, error) {
	if err := t.Validate(); err != nil {
		return memsys.Result{}, err
	}
	lines := make([][]uint32, len(t.Cmds))
	res := memsys.Result{ReadData: make([][]uint32, len(t.Cmds))}
	d := &serialDriver{
		cmds: t.Cmds,
		cost: func(c memsys.VectorCmd) uint64 {
			touched := s.linesTouched(c)
			res.Stats.LineFills += touched
			return s.fillTime(c, touched)
		},
		apply: func(i int, c memsys.VectorCmd) error {
			switch c.Op {
			case memsys.Read:
				lines[i] = gather(s.store, c)
				res.ReadData[i] = lines[i]
			case memsys.Write:
				data, err := memsys.WriteData(c, lines)
				if err != nil {
					return err
				}
				lines[i] = data
				scatter(s.store, c, data)
			}
			return nil
		},
	}
	cycles, err := runSerial(d)
	if err != nil {
		return memsys.Result{}, err
	}
	res.Cycles = cycles
	res.Stats.BusBusyCycles = res.Cycles
	return res, nil
}

// gather and scatter move a command's data under either kind.
func gather(st *memsys.Store, c memsys.VectorCmd) []uint32 {
	if c.Indexed() {
		return st.GatherAt(c.V.Base, c.Idx)
	}
	return st.Gather(c.V)
}

func scatter(st *memsys.Store, c memsys.VectorCmd, data []uint32) {
	if c.Indexed() {
		st.ScatterAt(c.V.Base, c.Idx, data)
		return
	}
	st.Scatter(c.V, data)
}

// fillTime is a command's execution time: serial fills on one channel,
// or — with channels — the busiest channel's share when the command's
// distinct lines round-robin across channels. Commands stay strictly
// serial with respect to each other (an in-order system), so channel
// parallelism only overlaps fills within one command.
func (s *CacheLineSerial) fillTime(c memsys.VectorCmd, touched uint64) uint64 {
	if s.Channels <= 1 {
		return touched * s.FillCost
	}
	per := touched / uint64(s.Channels)
	if touched%uint64(s.Channels) != 0 {
		per++
	}
	return per * s.FillCost
}

// linesTouched counts the distinct cache lines a vector command covers.
// When the vector fits the 32-bit address space without wrapping, the
// count is closed-form: addresses are monotone, so a sub-line stride
// touches every line in its span and a line-or-larger stride puts each
// element on its own line. Wrapping vectors fall back to enumeration.
func (s *CacheLineSerial) linesTouched(c memsys.VectorCmd) uint64 {
	v := c.V
	if v.Length == 0 {
		return 0
	}
	if c.Indexed() {
		// No closed form for an arbitrary index list: count the distinct
		// lines directly.
		seen := make(map[uint32]struct{}, v.Length)
		for i := uint32(0); i < v.Length; i++ {
			seen[c.Addr(i)/s.LineWords] = struct{}{}
		}
		return uint64(len(seen))
	}
	span := uint64(v.Stride) * uint64(v.Length-1)
	if uint64(v.Base)+span <= 0xFFFFFFFF {
		L := uint64(s.LineWords)
		switch {
		case v.Stride == 0:
			return 1
		case uint64(v.Stride) >= L:
			return uint64(v.Length)
		default:
			return (uint64(v.Base)%L+span)/L + 1
		}
	}
	seen := make(map[uint32]struct{}, v.Length)
	for i := uint32(0); i < v.Length; i++ {
		seen[v.Addr(i)/s.LineWords] = struct{}{}
	}
	return uint64(len(seen))
}

// GatheringSerial is the pipelined serial gathering system.
type GatheringSerial struct {
	Timing dramtech.Timing // per-command startup latencies
	// Decoder, when set, splits each command's elements across the
	// decoder's memory channels: the command expands its per-channel
	// subvectors in parallel (one element per cycle per channel), so its
	// time is startup plus the busiest channel's element count. nil: the
	// paper's single-channel system.
	Decoder addrmap.Decoder
	store   *memsys.Store
}

// NewGatheringSerial returns the paper's configuration (2-cycle RAS,
// CAS, precharge).
func NewGatheringSerial() *GatheringSerial {
	return &GatheringSerial{Timing: dramtech.PaperTiming(), store: memsys.NewStore()}
}

// NewGatheringSerialChannels returns the gathering system expanding each
// command across dec's channels in parallel; a nil or single-channel
// decoder is the paper's system.
func NewGatheringSerialChannels(dec addrmap.Decoder) *GatheringSerial {
	s := NewGatheringSerial()
	if dec != nil && dec.Channels() > 1 {
		s.Decoder = dec
	}
	return s
}

// Name implements memsys.System.
func (s *GatheringSerial) Name() string { return "gathering-serial" }

// Peek implements memsys.System.
func (s *GatheringSerial) Peek(a uint32) uint32 { return s.store.Read(a) }

// gsSnapshot is a GatheringSerial checkpoint.
type gsSnapshot struct {
	sys GatheringSerial
	img *memsys.Image
}

// Snapshot implements memsys.Snapshotter.
func (s *GatheringSerial) Snapshot() memsys.Checkpoint {
	return &gsSnapshot{sys: *s, img: s.store.Snapshot()}
}

// Restore implements memsys.Snapshotter.
func (s *GatheringSerial) Restore(cp memsys.Checkpoint) error {
	sn, ok := cp.(*gsSnapshot)
	if !ok {
		return fmt.Errorf("baseline: checkpoint %T is not a gathering-serial snapshot", cp)
	}
	s.store.Restore(sn.img)
	return nil
}

// NewSystem implements memsys.Checkpoint.
func (sn *gsSnapshot) NewSystem() (memsys.System, error) {
	c := sn.sys
	c.store = memsys.NewStoreFrom(sn.img)
	return &c, nil
}

// MemoryImage implements memsys.ImageSnapshotter.
func (s *GatheringSerial) MemoryImage() *memsys.Image { return s.store.Snapshot() }

// RestoreImage implements memsys.ImageSnapshotter.
func (s *GatheringSerial) RestoreImage(img *memsys.Image) { s.store.Restore(img) }

// Run implements memsys.System: per command, precharge + RAS + CAS once
// (closed-page policy, page crossings optimistically ignored), then one
// element per cycle.
func (s *GatheringSerial) Run(t memsys.Trace) (memsys.Result, error) {
	if err := t.Validate(); err != nil {
		return memsys.Result{}, err
	}
	startup := s.Timing.TRP + s.Timing.TRCD + s.Timing.CL
	lines := make([][]uint32, len(t.Cmds))
	res := memsys.Result{ReadData: make([][]uint32, len(t.Cmds))}
	d := &serialDriver{
		cmds: t.Cmds,
		cost: func(c memsys.VectorCmd) uint64 {
			res.Stats.Precharges++
			res.Stats.Activates++
			return startup + s.expandTime(c)
		},
		apply: func(i int, c memsys.VectorCmd) error {
			switch c.Op {
			case memsys.Read:
				lines[i] = gather(s.store, c)
				res.ReadData[i] = lines[i]
				res.Stats.SDRAMReads += uint64(c.V.Length)
			case memsys.Write:
				data, err := memsys.WriteData(c, lines)
				if err != nil {
					return err
				}
				lines[i] = data
				scatter(s.store, c, data)
				res.Stats.SDRAMWrites += uint64(c.V.Length)
			}
			return nil
		},
	}
	cycles, err := runSerial(d)
	if err != nil {
		return memsys.Result{}, err
	}
	res.Cycles = cycles
	res.Stats.BusBusyCycles = res.Cycles
	return res, nil
}

// expandTime is the cycles a command spends expanding addresses: one
// element per cycle on one channel, or — with a multi-channel decoder —
// the busiest channel's element count, since each channel expands its
// own subvector in parallel.
func (s *GatheringSerial) expandTime(c memsys.VectorCmd) uint64 {
	if s.Decoder == nil || s.Decoder.Channels() <= 1 {
		return uint64(c.V.Length)
	}
	if c.Indexed() {
		// Enumerate the per-channel element counts: an index list has no
		// closed-form channel split.
		counts := make([]uint64, s.Decoder.Channels())
		for i := uint32(0); i < c.V.Length; i++ {
			counts[s.Decoder.Decode(c.Addr(i)).Channel]++
		}
		var max uint64
		for _, n := range counts {
			if n > max {
				max = n
			}
		}
		return max
	}
	var max uint64
	for _, h := range addrmap.SplitVector(s.Decoder, c.V) {
		if n := uint64(h.Count); n > max {
			max = n
		}
	}
	return max
}
