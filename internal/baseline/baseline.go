// Package baseline implements the comparison memory systems of Section
// 6.1:
//
//   - cacheline-serial: an idealized cache-line interleaved SDRAM system
//     optimized for line fills. Every access becomes whole-line traffic;
//     each fill costs a fixed 20 cycles (2 RAS + 2 CAS + 16-cycle burst
//     over the 64-bit bus), precharge optimistically hidden, and no
//     gathering happens — sparse vectors drag whole lines across the bus.
//   - gathering-serial: a word-interleaved, closed-page SDRAM system that
//     gathers — it touches only the requested elements — but expands
//     vector addresses serially, one element per cycle, paying precharge
//     plus RAS/CAS once per vector command (RAS overlap assumed for all
//     but the first element, and commands never cross DRAM pages).
//
// Both are closed-form, so both are one Serial system: it executes a
// trace strictly in program order, which trivially satisfies every
// dependency, adding each command's cost to the run's cycles and then
// moving its data, so the shared correctness tests apply to them too.
// The constructors differ only in the cost they give it.
package baseline

import (
	"fmt"

	"pva/internal/addrmap"
	"pva/internal/dramtech"
	"pva/internal/memsys"
)

// Serial is a serial baseline: each command takes cost cycles, one after
// the other. cost also charges the command's counters to the run's
// Stats.
type Serial struct {
	name  string
	cost  func(c memsys.VectorCmd, st *memsys.Stats) uint64
	store *memsys.Store
}

const (
	lineWords = 32 // words per cache line
	fillCost  = 20 // cycles per line fill
)

// NewCacheLineSerialChannels returns the line-fill system with fills
// spread round-robin over the given number of memory channels (fill i of
// a command goes to channel i mod channels), so a command takes its
// busiest channel's share of fills. A line-fill system only parallelizes
// at line granularity, so this models the natural line-interleaved
// channel map whatever the PVA decoder is. Commands stay strictly
// serial, so channels only overlap fills within one command; channels
// <= 1 is the paper's system.
func NewCacheLineSerialChannels(channels uint32) *Serial {
	ch := uint64(max(channels, 1))
	return &Serial{name: "cacheline-serial", store: memsys.NewStore(),
		cost: func(c memsys.VectorCmd, st *memsys.Stats) uint64 {
			n := linesTouched(c)
			st.LineFills += n
			return (n + ch - 1) / ch * fillCost
		}}
}

// NewGatheringSerialChannels returns the gathering system expanding each
// command's per-channel subvectors across dec's channels in parallel,
// one element per cycle per channel, so a command takes precharge + RAS
// + CAS plus its busiest channel's element count. A nil or
// single-channel decoder is the paper's system.
func NewGatheringSerialChannels(dec addrmap.Decoder) *Serial {
	startup := dramtech.PaperTiming().ClosedAccess()
	return &Serial{name: "gathering-serial", store: memsys.NewStore(),
		cost: func(c memsys.VectorCmd, st *memsys.Stats) uint64 {
			st.Precharges++
			st.Activates++
			if c.Op == memsys.Read {
				st.SDRAMReads += uint64(c.V.Length)
			} else {
				st.SDRAMWrites += uint64(c.V.Length)
			}
			return startup + expandTime(dec, c)
		}}
}

// Name implements memsys.System.
func (s *Serial) Name() string { return s.name }

// Peek implements memsys.System.
func (s *Serial) Peek(a uint32) uint32 { return s.store.Read(a) }

// snapshot is a Serial checkpoint: the system by value plus an
// immutable memory image.
type snapshot struct {
	sys Serial
	img *memsys.Image
}

// Snapshot implements memsys.Snapshotter.
func (s *Serial) Snapshot() memsys.Checkpoint {
	return &snapshot{sys: *s, img: s.store.Snapshot()}
}

// Restore implements memsys.Snapshotter.
func (s *Serial) Restore(cp memsys.Checkpoint) error {
	sn, ok := cp.(*snapshot)
	if !ok || sn.sys.name != s.name {
		return fmt.Errorf("baseline: checkpoint %T is not a %s snapshot", cp, s.name)
	}
	s.store.Restore(sn.img)
	return nil
}

// NewSystem implements memsys.Checkpoint.
func (sn *snapshot) NewSystem() (memsys.System, error) {
	c := sn.sys
	c.store = memsys.NewStoreFrom(sn.img)
	return &c, nil
}

// Run implements memsys.System: in program order, each command adds its
// cost to the cycle count and then moves its data. The bus is busy for
// the whole run.
func (s *Serial) Run(t memsys.Trace) (memsys.Result, error) {
	if err := t.Validate(); err != nil {
		return memsys.Result{}, err
	}
	lines := make([][]uint32, len(t.Cmds))
	res := memsys.Result{ReadData: make([][]uint32, len(t.Cmds))}
	for i, c := range t.Cmds {
		res.Cycles += s.cost(c, &res.Stats)
		switch c.Op {
		case memsys.Read:
			if c.Indexed() {
				lines[i] = s.store.GatherAt(c.V.Base, c.Idx)
			} else {
				lines[i] = s.store.Gather(c.V)
			}
			res.ReadData[i] = lines[i]
		case memsys.Write:
			data, err := memsys.WriteData(c, lines)
			if err != nil {
				return memsys.Result{}, err
			}
			lines[i] = data
			if c.Indexed() {
				s.store.ScatterAt(c.V.Base, c.Idx, data)
			} else {
				s.store.Scatter(c.V, data)
			}
		}
	}
	res.Stats.BusBusyCycles = res.Cycles
	return res, nil
}

// linesTouched counts the distinct cache lines a command covers. When a
// base-stride vector fits the 32-bit address space without wrapping,
// the count is closed-form: addresses are monotone, so a sub-line stride
// touches every line in its span and a line-or-larger stride puts each
// element on its own line. Wrapping vectors and index lists are
// enumerated.
func linesTouched(c memsys.VectorCmd) uint64 {
	v := c.V
	span := uint64(v.Stride) * uint64(v.Length-1)
	if !c.Indexed() && v.Length > 0 && uint64(v.Base)+span <= 0xFFFFFFFF {
		switch {
		case v.Stride == 0:
			return 1
		case v.Stride >= lineWords:
			return uint64(v.Length)
		default:
			return (uint64(v.Base)%lineWords+span)/lineWords + 1
		}
	}
	seen := make(map[uint32]struct{}, v.Length)
	for i := uint32(0); i < v.Length; i++ {
		seen[c.Addr(i)/lineWords] = struct{}{}
	}
	return uint64(len(seen))
}

// expandTime is the cycles a command spends expanding addresses: one
// element per cycle on one channel, or the busiest channel's element
// count when each of dec's channels expands its own subvector in
// parallel. A base-stride vector splits by the decoder's closed form; an
// index list is decoded element by element.
func expandTime(dec addrmap.Decoder, c memsys.VectorCmd) uint64 {
	if dec == nil || dec.Channels() <= 1 {
		return uint64(c.V.Length)
	}
	var busiest uint64
	if !c.Indexed() {
		for _, h := range addrmap.SplitVector(dec, c.V) {
			busiest = max(busiest, uint64(h.Count))
		}
		return busiest
	}
	counts := make([]uint64, dec.Channels())
	for i := uint32(0); i < c.V.Length; i++ {
		ch := dec.Decode(c.Addr(i)).Channel
		counts[ch]++
		busiest = max(busiest, counts[ch])
	}
	return busiest
}
