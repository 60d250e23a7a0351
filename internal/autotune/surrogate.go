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
// decoder's (channel, bank), so the cost is the one the addrmap.Tuned
// decoder gives. Toggling bank-word bit b in mask j toggles label bit
// j+log2(C) for exactly the elements whose bank word has bit b set, so
// scoring a greedy neighbour costs one XOR per element on top of the
// claim and row-switch loop, and the labels are rewritten only when a
// climb accepts a flip. No Decoder is called and no Tuned is built per
// candidate.
//
// The surrogate is a ranking heuristic, not a cycle predictor: the
// search promotes its best candidates to the real simulator before
// declaring a winner (see Search).

package autotune

import (
	"fmt"
	"math/bits"

	"pva/internal/addr"
	"pva/internal/kernels"
)

// rowSwitchWeight is the surrogate's charge for an access that misses
// the open row of its internal bank, in column-access units. With the
// paper's 2-2-2 timing a conflict costs precharge + activate on top of
// the column access; 4 keeps the two effects on comparable scales.
const rowSwitchWeight = 4

// maxUnits bounds Channels*Banks: unit labels are uint16.
const maxUnits = 1 << 16

// noRow marks an internal bank with no open row.
const noRow = ^uint32(0)

// scorer evaluates the surrogate cost of mask sets over a fixed set of
// captured traces. It holds one climb's current labels and reuses its
// scratch state across evaluations, so scoring allocates nothing. Not
// safe for concurrent use: each concurrent climber owns a fork.
type scorer struct {
	traces   []kernels.AddressTrace // shared by every fork, read-only
	lc       uint                   // log2 channels: label bit of bank bit 0
	shift    uint                   // log2(channels*banks): address to bank word
	unitMask uint32                 // channels*banks - 1
	// The bank word's (row, internal bank) key, row<<ibBits | ibank, is
	// bw>>ibShift & keyMask: SDRAMGeom.Decompose for power-of-two rows.
	ibShift uint
	ibBits  uint
	keyMask uint32
	labels  []uint16 // per element in trace order, its unit label
	claims  []uint32 // per unit, elements claimed this command
	lastRow []uint32 // per (unit<<ibBits | ibank) open row's key
}

// newScorer sizes the scratch state for mask sets over the given
// channel/bank shape (at most maxUnits units) and captured traces.
func newScorer(traces []kernels.AddressTrace, geom addr.SDRAMGeom, channels, banks uint32) (*scorer, error) {
	if geom.Rows&(geom.Rows-1) != 0 {
		return nil, fmt.Errorf("autotune: surrogate needs a power-of-two row count, got %d", geom.Rows)
	}
	units := channels * banks
	n := 0
	for _, tr := range traces {
		n += tr.Elements()
	}
	return &scorer{
		traces:   traces,
		lc:       uint(bits.TrailingZeros32(channels)),
		shift:    uint(bits.TrailingZeros32(units)),
		unitMask: units - 1,
		ibShift:  uint(bits.TrailingZeros32(geom.RowWords)),
		ibBits:   uint(bits.TrailingZeros32(geom.InternalBanks)),
		keyMask:  uint32(uint64(geom.InternalBanks)*uint64(geom.Rows) - 1),
		labels:   make([]uint16, n),
		claims:   make([]uint32, units),
		lastRow:  make([]uint32, units*geom.InternalBanks),
	}, nil
}

// fork returns a scorer over the same traces with its own scratch.
func (s *scorer) fork() *scorer {
	f := *s
	f.labels = make([]uint16, len(s.labels))
	f.claims = make([]uint32, len(s.claims))
	f.lastRow = make([]uint32, len(s.lastRow))
	return &f
}

// load labels every element under masks (one per bank bit) and returns
// their cost. The surrogate never fails; the error is the rung's.
func (s *scorer) load(masks []uint32) (uint64, error) {
	k := 0
	for _, tr := range s.traces {
		for _, cmd := range tr.Cmds {
			for _, a := range cmd {
				bw := a >> s.shift
				var fold uint32
				for j, m := range masks {
					fold |= uint32(bits.OnesCount32(bw&m)&1) << uint(j)
				}
				s.labels[k] = uint16(a&s.unitMask ^ fold<<s.lc)
				k++
			}
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

// accept makes the neighbour (j, b) the loaded mask set.
func (s *scorer) accept(j int, b uint) {
	flip := uint16(1) << (uint(j) + s.lc)
	k := 0
	for _, tr := range s.traces {
		for _, cmd := range tr.Cmds {
			for _, a := range cmd {
				s.labels[k] ^= uint16(a>>s.shift>>b&1) * flip
				k++
			}
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
	labels := s.labels
	var total uint64
	for _, tr := range s.traces {
		for i := range s.lastRow {
			s.lastRow[i] = noRow
		}
		for _, cmd := range tr.Cmds {
			total += s.cmdCost(cmd, labels[:len(cmd)], bs, flip)
			labels = labels[len(cmd):]
		}
	}
	return total
}

// cmdCost charges one command: the row switches of its elements plus its
// most-loaded unit's claim, read back while the claims reset. It is its
// own function so the compiler keeps the loop's state in registers.
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
