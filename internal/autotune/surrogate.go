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
// and one packed touch record per first access to a slot it touches,
//
//	touch = label<<keyBits | key,   key = row<<ibBits | ibank,
//
// so that a replay loads 4 bytes per touch. A command's run of records
// holds min(len, units × internal banks it spans) of them: the masks
// move an access between units, never between internal banks, so the
// addresses alone fix the bound. A neighbour walks elements only for
// the commands that straddle bit b; every other command adds its claim
// and replays its records against the open rows, XORed by the toggled
// label bit when it holds b at 1. A command in which some slot sees two
// rows is walked whatever b is; that needs a row crossing in one
// internal bank within one command, which is rare. accept rewrites the
// labels and records of the commands holding b at 1 and re-summarizes
// only the straddling commands.
//
// Per-trace costs. Row state resets between traces, so the same
// argument holds for a whole trace: if all its elements hold bit b at
// 0 the toggle leaves its labels alone, and if all hold it at 1 it
// XORs every label by one value, a bijection on the units and slots of
// the whole trace; either way its cost stays what it was. The scorer
// keeps each trace's cost under the loaded labels, and a neighbour
// prices only the traces in which b varies. accept adopts the
// per-trace costs of the neighbour just scored, or prices the traces
// in which b varies again.
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
// The search only ever runs for the paper's SDRAM (fullCycles builds
// pvaunit.PaperConfig and Options has no back-end field), so no other
// device's row switch needs weighing.
var rowSwitchWeight = dramtech.PaperTiming().RowSwitch()

// maxUnits bounds Channels*Banks: unit labels are uint16.
const maxUnits = 1 << 16

// noRow marks an internal bank with no open row.
const noRow = ^uint32(0)

// walk marks a command the scorer prices element by element whatever
// bit a neighbour toggles: some slot sees two rows inside it, or it is
// too long for uint16 touch counts.
const walk = ^uint16(0)

// cmdBits is what one command's addresses fix whatever the masks.
type cmdBits struct {
	straddle uint32 // bank-word bits its elements disagree on
	ones     uint32 // bank-word bits all its elements hold at 1
	at, end  uint32 // its run of touch records in scorer.touches
}

// traceSpan is where one trace's commands and labels start, and the
// bank-word bits its elements disagree on.
type traceSpan struct {
	cmd, elem int
	vary      uint32
}

// summary is one command's cost structure under the loaded labels.
type summary struct {
	claim   uint16 // its most-loaded unit's claim
	touches uint16 // slots it touches, or walk
}

// toggle names one neighbour: bank-word bit b toggled in mask j.
type toggle struct {
	j int
	b uint
}

// noToggle is no neighbour.
var noToggle = toggle{j: -1}

// scorer evaluates the surrogate cost of mask sets over a fixed set of
// captured traces. It holds one climb's current labels, command
// summaries and trace costs and reuses its scratch state across
// evaluations, so scoring allocates nothing. Not safe for concurrent
// use: each concurrent climber owns a fork.
type scorer struct {
	traces   []kernels.AddressTrace // shared by every fork, read-only
	bits     []cmdBits              // per command in trace order; shared, read-only
	spans    []traceSpan            // per trace; shared, read-only
	lc       uint                   // log2 channels: label bit of bank bit 0
	shift    uint                   // log2(channels*banks): address to bank word
	unitMask uint32                 // channels*banks - 1
	// An address's (row, internal bank) key, row<<ibBits | ibank, is
	// a>>kShift & keyMask: SDRAMGeom.Decompose for power-of-two rows.
	kShift  uint
	ibBits  uint
	keyBits uint // a touch record's label sits above its key
	keyMask uint32
	labels  []uint16  // per element in trace order, its unit label
	sums    []summary // per command in trace order
	touches []uint32  // per command from its bits' at, its touch records
	costs   []uint64  // per trace, its cost under the loaded labels
	next    []uint64  // per trace, its cost under the neighbour scored last
	scored  toggle    // that neighbour, or noToggle once the labels moved
	claims  []uint32  // per unit, elements claimed this command; all 0 between calls
	lastRow []uint32  // per slot (unit<<ibBits | ibank), open row's key; all noRow between calls
}

// newScorer sizes the scratch state for mask sets over the given
// channel/bank shape (at most maxUnits units) and captured traces.
func newScorer(traces []kernels.AddressTrace, geom addr.SDRAMGeom, channels, banks uint32) (*scorer, error) {
	if geom.Rows&(geom.Rows-1) != 0 {
		return nil, fmt.Errorf("autotune: surrogate needs a power-of-two row count, got %d", geom.Rows)
	}
	units := channels * banks
	labelBits := uint(bits.TrailingZeros32(units))
	ibBits := uint(bits.TrailingZeros32(geom.InternalBanks))
	rowBits := uint(bits.TrailingZeros32(geom.Rows))
	if labelBits+ibBits+rowBits > 32 {
		return nil, fmt.Errorf("autotune: a %d-bit unit label and a %d-bit (row, internal bank) key do not fit the surrogate's 32-bit touch records",
			labelBits, ibBits+rowBits)
	}
	kShift := labelBits + uint(bits.TrailingZeros32(geom.RowWords))
	if kShift >= 32 {
		return nil, fmt.Errorf("autotune: %d units of %d-word rows put the internal bank above address bit 31", units, geom.RowWords)
	}
	s := &scorer{
		traces:   traces,
		spans:    make([]traceSpan, len(traces)),
		lc:       uint(bits.TrailingZeros32(channels)),
		shift:    labelBits,
		unitMask: units - 1,
		kShift:   kShift,
		ibBits:   ibBits,
		keyBits:  ibBits + rowBits,
		keyMask:  uint32(uint64(geom.InternalBanks)*uint64(geom.Rows) - 1),
	}
	cmds := 0
	for _, tr := range traces {
		cmds += len(tr.Cmds)
	}
	s.bits = make([]cmdBits, 0, cmds)
	ibMask := geom.InternalBanks - 1
	seen := make([]bool, geom.InternalBanks)
	n, at := 0, 0
	for t, tr := range traces {
		s.spans[t] = traceSpan{cmd: len(s.bits), elem: n}
		tand, tor := ^uint32(0), uint32(0)
		for _, cmd := range tr.Cmds {
			and, or := ^uint32(0), uint32(0)
			spanned := 0 // internal banks the command touches
			for _, a := range cmd {
				and &= a >> s.shift
				or |= a >> s.shift
				if ib := a >> kShift & ibMask; !seen[ib] {
					seen[ib] = true
					spanned++
				}
			}
			for _, a := range cmd {
				seen[a>>kShift&ibMask] = false
			}
			end := at + min(len(cmd), int(units)*spanned)
			s.bits = append(s.bits, cmdBits{straddle: or &^ and, ones: and & or, at: uint32(at), end: uint32(end)})
			tand, tor = tand&and, tor|or
			n, at = n+len(cmd), end
		}
		s.spans[t].vary = tor &^ tand
	}
	s.alloc(n, at, int(units), int(units*geom.InternalBanks))
	return s, nil
}

// alloc gives s its own labels, summaries, records, costs and scratch.
func (s *scorer) alloc(elements, touches, units, slots int) {
	s.labels = make([]uint16, elements)
	s.sums = make([]summary, len(s.bits))
	s.touches = make([]uint32, touches)
	s.costs = make([]uint64, len(s.spans))
	s.next = make([]uint64, len(s.spans))
	s.scored = noToggle
	s.claims = make([]uint32, units)
	s.lastRow = make([]uint32, slots)
	for i := range s.lastRow {
		s.lastRow[i] = noRow
	}
}

// fork returns a scorer over the same traces with its own labels,
// summaries, records, costs and scratch.
func (s *scorer) fork() *scorer {
	f := *s
	f.alloc(len(s.labels), len(s.touches), len(s.claims), len(s.lastRow))
	return &f
}

// load labels and summarizes every command under masks (one per bank
// bit), prices every trace and returns their total cost. The surrogate
// never fails; the error is the rung's.
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
			s.summarize(ci, cmd, labels)
			k += len(cmd)
			ci++
		}
	}
	var total uint64
	for t := range s.spans {
		s.costs[t] = s.traceCost(t, 0, 0)
		total += s.costs[t]
	}
	s.scored = noToggle
	return total, nil
}

// neighbour returns the cost of the loaded masks with bank-word bit b
// toggled in mask j, leaving the labels as they are (the masks argument
// is the rung's; the labels already say everything else). A trace that
// holds b constant keeps its loaded cost.
func (s *scorer) neighbour(_ []uint32, j int, b uint) (uint64, error) {
	flip := uint32(1) << (uint(j) + s.lc)
	var total uint64
	for t, sp := range s.spans {
		c := s.costs[t]
		if sp.vary>>b&1 != 0 {
			c = s.traceCost(t, b, flip)
		}
		s.next[t] = c
		total += c
	}
	s.scored = toggle{j, b}
	return total, nil
}

// accept makes the neighbour (j, b) the loaded mask set. A command
// holding bit b at 1 has all its labels and records XORed, which leaves
// its summary as it was; only the straddling commands are summarized
// again. The trace costs are the neighbour's when it was the one scored
// last; otherwise the traces in which b varies are priced again.
func (s *scorer) accept(j int, b uint) {
	flip := uint16(1) << (uint(j) + s.lc)
	touchFlip := uint32(flip) << s.keyBits
	k, ci := 0, 0
	for _, tr := range s.traces {
		for _, cmd := range tr.Cmds {
			labels := s.labels[k : k+len(cmd)]
			switch cb, sum := s.bits[ci], s.sums[ci]; {
			case cb.straddle>>b&1 != 0:
				for i, a := range cmd {
					labels[i] ^= uint16(a>>s.shift>>b&1) * flip
				}
				s.summarize(ci, cmd, labels)
			case cb.ones>>b&1 != 0:
				for i := range labels {
					labels[i] ^= flip
				}
				if sum.touches != walk {
					touches := s.touches[cb.at : cb.at+uint32(sum.touches)]
					for i := range touches {
						touches[i] ^= touchFlip
					}
				}
			}
			k += len(cmd)
			ci++
		}
	}
	if s.scored == (toggle{j, b}) {
		s.costs, s.next = s.next, s.costs
	} else {
		for t, sp := range s.spans {
			if sp.vary>>b&1 != 0 {
				s.costs[t] = s.traceCost(t, 0, 0)
			}
		}
	}
	s.scored = noToggle
}

// traceCost returns trace t's surrogate cost with label bits flip
// toggled on the elements whose bank word has bit b set, lower is
// better (flip 0: the loaded labels). Row state starts empty in every
// trace — each models an independent run from a warm-restored
// checkpoint.
func (s *scorer) traceCost(t int, b uint, flip uint32) uint64 {
	bs := b + s.shift // bit b of the bank word, in the address
	touchFlip := flip << s.keyBits
	sp := s.spans[t]
	k, ci := sp.elem, sp.cmd
	var total uint64
	for _, cmd := range s.traces[t].Cmds {
		cb, sum := s.bits[ci], s.sums[ci]
		if sum.touches == walk || cb.straddle>>b&1 != 0 {
			total += s.cmdCost(cmd, s.labels[k:k+len(cmd)], bs, flip)
		} else {
			touches := s.touches[cb.at : cb.at+uint32(sum.touches)]
			total += uint64(sum.claim) + s.replay(touches, touchFlip&-(cb.ones>>b&1))
		}
		k += len(cmd)
		ci++
	}
	for i := range s.lastRow {
		s.lastRow[i] = noRow
	}
	return total
}

// cmdCost charges one command element by element: the row switches of
// its elements plus its most-loaded unit's claim. It is its own
// function so the compiler keeps the loop's state in registers.
func (s *scorer) cmdCost(cmd []uint32, labels []uint16, bs uint, flip uint32) uint64 {
	// The masks are no-ops that drop the shifts' range checks: bank-word
	// bits and the key sit below bit 32 (newScorer checks kShift), and
	// a uint32 count of internal banks has ibBits below 32.
	bs, kShift, ibBits := bs&31, s.kShift&31, s.ibBits&31
	keyMask, ibMask := s.keyMask, uint32(1)<<ibBits-1
	claims, lastRow := s.claims, s.lastRow
	labels = labels[:len(cmd)]
	var switches uint64
	var maxClaim uint32
	for i, a := range cmd {
		u := uint32(labels[i]) ^ -(a>>bs&1)&flip
		c := claims[u] + 1
		claims[u] = c
		maxClaim = max(maxClaim, c)
		key := a >> kShift & keyMask
		slot := u<<ibBits | key&ibMask
		if r := lastRow[slot]; r != key {
			if r != noRow {
				switches++
			}
			lastRow[slot] = key
		}
	}
	clear(claims)
	return switches*rowSwitchWeight + uint64(maxClaim)
}

// replay charges a summarized command's row switches from its touch
// records, XORed by flip: each slot it touches sees one row, so only
// the first access to each can leave an open row.
func (s *scorer) replay(touches []uint32, flip uint32) uint64 {
	keyBits, keyMask, ibBits := s.keyBits, s.keyMask, s.ibBits
	ibMask := uint32(1)<<ibBits - 1
	lastRow := s.lastRow
	var switches uint64
	for _, t := range touches {
		t ^= flip
		key := t & keyMask
		slot := t>>keyBits<<ibBits | key&ibMask
		if r := lastRow[slot]; r != key {
			if r != noRow {
				switches++
			}
			lastRow[slot] = key
		}
	}
	return switches * rowSwitchWeight
}

// summarize records command ci's claim and touch records under the
// loaded labels, using lastRow as the command's own per-slot row and
// leaving it all noRow again.
func (s *scorer) summarize(ci int, cmd []uint32, labels []uint16) {
	if len(cmd) >= int(walk) {
		s.sums[ci] = summary{touches: walk}
		return
	}
	kShift, keyMask, ibBits, keyBits := s.kShift, s.keyMask, s.ibBits, s.keyBits
	ibMask := uint32(1)<<ibBits - 1
	claims, rows := s.claims, s.lastRow
	touches := s.touches[s.bits[ci].at:s.bits[ci].end]
	var maxClaim uint32
	n, twoRows := 0, false
	for i, a := range cmd {
		u := uint32(labels[i])
		c := claims[u] + 1
		claims[u] = c
		maxClaim = max(maxClaim, c)
		key := a >> kShift & keyMask
		slot := u<<ibBits | key&ibMask
		switch rows[slot] {
		case noRow:
			rows[slot] = key
			touches[n] = u<<keyBits | key
			n++
		case key:
		default:
			twoRows = true
		}
	}
	clear(claims)
	for _, t := range touches[:n] {
		rows[t>>keyBits<<ibBits|t&ibMask] = noRow
	}
	sum := summary{claim: uint16(maxClaim), touches: uint16(n)}
	if twoRows {
		sum.touches = walk
	}
	s.sums[ci] = sum
}
