// The decode-only surrogate: a cheap stand-in for the cycle-accurate
// simulator that ranks mask sets by the conflict structure they give a
// recorded address trace. It is what lets the search walk the XOR-hash
// space greedily and keep the expensive simulator for the few
// survivors.
//
// The cost model charges exactly the two effects the PVA's performance
// hinges on:
//
//   - Serialization floor: a vector command finishes no sooner than its
//     most-loaded (channel, bank) unit, one column access per claimed
//     element. Each command contributes its maximum per-unit claim.
//   - Row churn: an access leaving the open row of its internal bank
//     pays precharge + activate. Row state is tracked per (channel,
//     bank, internal bank) across the whole trace, matching the
//     device's open-row behavior between commands.
//
// Delta scoring. The scorer decodes inline from the captured addresses
// and keeps each element's unit label under the loaded masks,
//
//	label = (a & (C*M-1)) ^ fold(bw) << log2(C),
//
// which is channel | bank<<log2(C): a bijective relabeling of the
// decoder's (channel, bank), so the cost is the one the tuned
// addrmap.Map gives. Toggling bank-word bit b in mask j toggles label
// bit j+log2(C) for exactly the elements whose bank word has bit b set.
// No Decoder is called and no Map is built per candidate.
//
// Summary scoring. A command whose elements all hold bit b at 0 keeps
// its labels under that toggle, and one whose elements all hold it at 1
// has every label XORed by the same value: a bijection on the units and
// the (unit, internal bank) slots it touches. Its largest claim and the
// row switches among its own accesses stay what they were; only its
// first access to each slot can meet a different open row. So the
// scorer keeps, per command under the loaded labels, its largest claim
// and the element index of its first access to each slot it touches.
// A neighbour walks elements only for the commands that straddle bit b;
// every other command adds its claim and replays its first touches
// against the open rows, XORed when it holds b at 1. A command in which
// some slot sees two rows is walked whatever b is; that needs a row
// crossing in one internal bank within one command, which is rare.
// accept rewrites the labels and re-summarizes only the straddling
// commands.
//
// The surrogate is a ranking heuristic, not a cycle predictor: the
// search promotes its best candidates to the real simulator before
// declaring a winner (see Search).

package autotune

import (
	"fmt"
	"math/bits"

	"pva/internal/addr"
	"pva/internal/dramtech"
	"pva/internal/kernels"
)

// rowSwitchWeight is the surrogate's charge for an access that misses
// the open row of its internal bank, in column-access units: the
// precharge + activate a conflict costs on the paper's device on top of
// the column access, which keeps the two effects on comparable scales.
var rowSwitchWeight = dramtech.PaperTiming().RowSwitch()

// maxUnits bounds Channels*Banks: unit labels are uint16.
const maxUnits = 1 << 16

// noRow marks an internal bank with no open row.
const noRow = ^uint32(0)

// walk marks a command the scorer prices element by element whatever
// bit a neighbour toggles: some slot sees two rows inside it, or it is
// too long for uint16 element indices.
const walk = ^uint16(0)

// cmdBits is what one command's bank words have in common.
type cmdBits struct {
	straddle uint32 // bits its elements disagree on
	ones     uint32 // bits all its elements hold at 1
}

// summary is one command's cost structure under the loaded labels.
type summary struct {
	claim   uint16 // its most-loaded unit's claim
	touches uint16 // slots it touches, or walk
}

// scorer evaluates the surrogate cost of mask sets over a fixed set of
// captured traces. It holds one climb's current labels and command
// summaries and reuses its scratch state across evaluations, so scoring
// allocates nothing. Not safe for concurrent use: each concurrent
// climber owns a fork.
type scorer struct {
	traces   []kernels.AddressTrace // shared by every fork, read-only
	bits     []cmdBits              // per command in trace order; shared, read-only
	lc       uint                   // log2 channels: label bit of bank bit 0
	shift    uint                   // log2(channels*banks): address to bank word
	unitMask uint32                 // channels*banks - 1
	// The bank word's (row, internal bank) key, row<<ibBits | ibank, is
	// bw>>ibShift & keyMask: SDRAMGeom.Decompose for power-of-two rows.
	ibShift uint
	ibBits  uint
	keyMask uint32
	labels  []uint16  // per element in trace order, its unit label
	sums    []summary // per command in trace order
	// From each command's element offset on, the indices within the
	// command of its first access to each slot it touches.
	first   []uint16
	claims  []uint32 // per unit, elements claimed this command
	lastRow []uint32 // per (unit<<ibBits | ibank) open row's key; all noRow between calls
}

// newScorer sizes the scratch state for mask sets over the given
// channel/bank shape (at most maxUnits units) and captured traces.
func newScorer(traces []kernels.AddressTrace, geom addr.SDRAMGeom, channels, banks uint32) (*scorer, error) {
	if geom.Rows&(geom.Rows-1) != 0 {
		return nil, fmt.Errorf("autotune: surrogate needs a power-of-two row count, got %d", geom.Rows)
	}
	units := channels * banks
	s := &scorer{
		traces:   traces,
		lc:       uint(bits.TrailingZeros32(channels)),
		shift:    uint(bits.TrailingZeros32(units)),
		unitMask: units - 1,
		ibShift:  uint(bits.TrailingZeros32(geom.RowWords)),
		ibBits:   uint(bits.TrailingZeros32(geom.InternalBanks)),
		keyMask:  uint32(uint64(geom.InternalBanks)*uint64(geom.Rows) - 1),
	}
	n := 0
	for _, tr := range traces {
		for _, cmd := range tr.Cmds {
			and, or := ^uint32(0), uint32(0)
			for _, a := range cmd {
				and &= a >> s.shift
				or |= a >> s.shift
			}
			s.bits = append(s.bits, cmdBits{straddle: or &^ and, ones: and & or})
			n += len(cmd)
		}
	}
	s.alloc(n, int(units), int(units*geom.InternalBanks))
	return s, nil
}

// alloc gives s its own labels, summaries and scratch.
func (s *scorer) alloc(elements, units, slots int) {
	s.labels = make([]uint16, elements)
	s.first = make([]uint16, elements)
	s.sums = make([]summary, len(s.bits))
	s.claims = make([]uint32, units)
	s.lastRow = make([]uint32, slots)
	for i := range s.lastRow {
		s.lastRow[i] = noRow
	}
}

// fork returns a scorer over the same traces with its own labels,
// summaries and scratch.
func (s *scorer) fork() *scorer {
	f := *s
	f.alloc(len(s.labels), len(s.claims), len(s.lastRow))
	return &f
}

// load labels and summarizes every command under masks (one per bank
// bit) and returns their cost. The surrogate never fails; the error is
// the rung's.
func (s *scorer) load(masks []uint32) (uint64, error) {
	k, ci := 0, 0
	for _, tr := range s.traces {
		for _, cmd := range tr.Cmds {
			labels := s.labels[k : k+len(cmd)]
			for i, a := range cmd {
				bw := a >> s.shift
				var fold uint32
				for j, m := range masks {
					fold |= uint32(bits.OnesCount32(bw&m)&1) << uint(j)
				}
				labels[i] = uint16(a&s.unitMask ^ fold<<s.lc)
			}
			s.summarize(ci, cmd, labels, s.first[k:k+len(cmd)])
			k += len(cmd)
			ci++
		}
	}
	return s.score(0, 0), nil
}

// neighbour returns the cost of the loaded masks with bank-word bit b
// toggled in mask j, leaving the labels as they are (the masks argument
// is the rung's; the labels already say everything else).
func (s *scorer) neighbour(_ []uint32, j int, b uint) (uint64, error) {
	return s.score(b, 1<<(uint(j)+s.lc)), nil
}

// accept makes the neighbour (j, b) the loaded mask set. A command
// holding bit b at 1 has all its labels XORed, which leaves its summary
// as it was; only the straddling commands are summarized again.
func (s *scorer) accept(j int, b uint) {
	flip := uint16(1) << (uint(j) + s.lc)
	k, ci := 0, 0
	for _, tr := range s.traces {
		for _, cmd := range tr.Cmds {
			labels := s.labels[k : k+len(cmd)]
			switch cb := s.bits[ci]; {
			case cb.straddle>>b&1 != 0:
				for i, a := range cmd {
					labels[i] ^= uint16(a>>s.shift>>b&1) * flip
				}
				s.summarize(ci, cmd, labels, s.first[k:k+len(cmd)])
			case cb.ones>>b&1 != 0:
				for i := range labels {
					labels[i] ^= flip
				}
			}
			k += len(cmd)
			ci++
		}
	}
}

// score returns the surrogate cost of every captured trace with label
// bits flip toggled on the elements whose bank word has bit b set, lower
// is better (flip 0: the loaded masks). Row state resets between traces
// — each trace models an independent run from a warm-restored
// checkpoint.
func (s *scorer) score(b uint, flip uint32) uint64 {
	bs := b + s.shift // bit b of the bank word, in the address
	var total uint64
	k, ci := 0, 0
	for _, tr := range s.traces {
		for _, cmd := range tr.Cmds {
			labels := s.labels[k : k+len(cmd)]
			cb, sum := s.bits[ci], s.sums[ci]
			if sum.touches == walk || cb.straddle>>b&1 != 0 {
				total += s.cmdCost(cmd, labels, bs, flip)
			} else {
				first := s.first[k : k+int(sum.touches)]
				total += uint64(sum.claim) + s.replay(cmd, labels, first, flip&-(cb.ones>>b&1))
			}
			k += len(cmd)
			ci++
		}
		for i := range s.lastRow {
			s.lastRow[i] = noRow
		}
	}
	return total
}

// cmdCost charges one command element by element: the row switches of
// its elements plus its most-loaded unit's claim, read back while the
// claims reset. It is its own function so the compiler keeps the loop's
// state in registers.
func (s *scorer) cmdCost(cmd []uint32, labels []uint16, bs uint, flip uint32) uint64 {
	bs &= 31 // a no-op (bank-word bits sit below bit 32) that drops the shift's range check
	kShift, keyMask, ibBits := s.shift+s.ibShift, s.keyMask, s.ibBits
	ibMask := uint32(1)<<ibBits - 1
	claims, lastRow := s.claims, s.lastRow
	labels = labels[:len(cmd)]
	var switches uint64
	for i, a := range cmd {
		u := uint32(labels[i]) ^ -(a>>bs&1)&flip
		claims[u]++
		key := a >> kShift & keyMask
		slot := u<<ibBits | key&ibMask
		if r := lastRow[slot]; r != key {
			if r != noRow {
				switches++
			}
			lastRow[slot] = key
		}
	}
	var maxClaim uint32
	for i, a := range cmd {
		u := uint32(labels[i]) ^ -(a>>bs&1)&flip
		maxClaim = max(maxClaim, claims[u])
		claims[u] = 0
	}
	return switches*rowSwitchWeight + uint64(maxClaim)
}

// replay charges a summarized command's row switches, its labels XORed
// by flip: each slot it touches sees one row, so only the first access
// to each can leave an open row.
func (s *scorer) replay(cmd []uint32, labels, first []uint16, flip uint32) uint64 {
	kShift, keyMask, ibBits := s.shift+s.ibShift, s.keyMask, s.ibBits
	ibMask := uint32(1)<<ibBits - 1
	lastRow := s.lastRow
	var switches uint64
	for _, i := range first {
		u := uint32(labels[i]) ^ flip
		key := cmd[i] >> kShift & keyMask
		slot := u<<ibBits | key&ibMask
		if r := lastRow[slot]; r != key {
			if r != noRow {
				switches++
			}
			lastRow[slot] = key
		}
	}
	return switches * rowSwitchWeight
}

// summarize records command ci's claim and first touches under the
// loaded labels, using lastRow as the command's own per-slot row and
// leaving it all noRow again.
func (s *scorer) summarize(ci int, cmd []uint32, labels, first []uint16) {
	if len(cmd) >= int(walk) {
		s.sums[ci] = summary{touches: walk}
		return
	}
	kShift, keyMask, ibBits := s.shift+s.ibShift, s.keyMask, s.ibBits
	ibMask := uint32(1)<<ibBits - 1
	claims, rows := s.claims, s.lastRow
	n, twoRows := 0, false
	for i, a := range cmd {
		u := uint32(labels[i])
		claims[u]++
		key := a >> kShift & keyMask
		slot := u<<ibBits | key&ibMask
		switch rows[slot] {
		case noRow:
			rows[slot] = key
			first[n] = uint16(i)
			n++
		case key:
		default:
			twoRows = true
		}
	}
	var maxClaim uint32
	for _, u := range labels {
		maxClaim = max(maxClaim, claims[u])
		claims[u] = 0
	}
	for _, i := range first[:n] {
		rows[uint32(labels[i])<<ibBits|cmd[i]>>kShift&ibMask] = noRow
	}
	sum := summary{claim: uint16(maxClaim), touches: uint16(n)}
	if twoRows {
		sum.touches = walk
	}
	s.sums[ci] = sum
}
