// The executable row-state model. A Model tracks one row-state machine
// per *unit* — the whole internal bank for plain SDRAM, a subarray for
// SALP (Kim et al.: overlapping ACTIVATEs to different subarrays of one
// bank), or a partition for PCM (Song et al.: partition-level
// parallelism with asymmetric read/write occupancy) — or, for the SRAM
// back end, no row state at all.
//
// Device.Issue runs every command through the model's checks, which
// derive the unit from (internal bank, row) on every command;
// internal/bankctl reads the same model by the flat unit index it
// cached when its vector context last moved (UnitIndex, then Need and
// OpenRow). With Units == 1 and WriteBusy == 0 the model is exactly the
// historical SDRAM bank state machine, transition for transition — the
// seed-cycle golden pins this.

package dramtech

import (
	"fmt"

	"pva/internal/addr"
)

// Backend selects the executable device back end.
type Backend uint8

const (
	// BackendSDRAM is the plain SDRAM bank state machine: one row
	// buffer per internal bank. The zero value, so a zero Spec is the
	// paper's device.
	BackendSDRAM Backend = iota
	// BackendSALP models subarray-level parallelism: each internal bank
	// holds Units subarrays with independent row state, so ACTIVATEs to
	// different subarrays of one bank overlap.
	BackendSALP
	// BackendPCM models a phase-change memory bank of Units partitions:
	// independent row (buffer) state per partition, and a WRITE keeps
	// its partition busy for WriteBusy extra cycles (the read/write
	// asymmetry of PCM cells).
	BackendPCM
	// BackendSRAM is the idealized static memory of the PVA-SRAM
	// comparison system (Section 6.1): no rows, so every access is legal
	// at once and ACTIVATE and PRECHARGE are protocol violations. No
	// user-facing tech name selects it; the SRAM system's constructors
	// do.
	BackendSRAM
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendSDRAM:
		return "sdram"
	case BackendSALP:
		return "salp"
	case BackendPCM:
		return "pcm"
	case BackendSRAM:
		return "sram"
	default:
		return fmt.Sprintf("backend(%d)", uint8(b))
	}
}

// Spec selects a back end and its intra-bank organization. The zero
// value is plain SDRAM: one unit per internal bank, symmetric writes.
type Spec struct {
	Backend Backend
	// Units is the number of independent row-state units per internal
	// bank — subarrays for SALP, partitions for PCM. 0 or 1 means one
	// (plain SDRAM behavior); must be a power of two.
	Units uint32
	// WriteBusy is the extra cycles a unit stays occupied after a WRITE
	// (PCM's slow cell programming). 0 for symmetric technologies.
	WriteBusy uint64
}

// Timing returns the timing a device of this back end runs on, given the
// configured timing. The rowless SRAM runs on the SRAM preset: "this
// system incurs no precharge or RAS latencies: all memory accesses take
// a single cycle" (Section 6.1). PCM runs on PCMTiming. Every other back
// end runs on the configured timing.
func (s Spec) Timing(configured Timing) Timing {
	switch s.Backend {
	case BackendSRAM:
		return presets[SRAM].timing()
	case BackendPCM:
		return PCMTiming()
	default:
		return configured
	}
}

// ValidateSelection checks a user-facing (tech, subarrays, partitions)
// selection before any hardware is built. tech "" means "sdram".
func ValidateSelection(tech string, subarrays, partitions uint32) error {
	switch tech {
	case "", "sdram":
		if subarrays > 1 {
			return fmt.Errorf("dramtech: SubarraysPerBank=%d requires tech \"salp\"", subarrays)
		}
		if partitions > 1 {
			return fmt.Errorf("dramtech: Partitions=%d requires tech \"pcm\"", partitions)
		}
	case "salp":
		if partitions > 1 {
			return fmt.Errorf("dramtech: Partitions=%d requires tech \"pcm\", not \"salp\"", partitions)
		}
		if s := max(subarrays, 1); s&(s-1) != 0 {
			return fmt.Errorf("dramtech: SubarraysPerBank=%d is not a power of two", subarrays)
		}
	case "pcm":
		if subarrays > 1 {
			return fmt.Errorf("dramtech: SubarraysPerBank=%d requires tech \"salp\", not \"pcm\"", subarrays)
		}
		if p := max(partitions, 1); p&(p-1) != 0 {
			return fmt.Errorf("dramtech: Partitions=%d is not a power of two", partitions)
		}
	default:
		return fmt.Errorf("dramtech: unknown tech %q (want sdram, salp, or pcm)", tech)
	}
	return nil
}

// SpecFor builds the executable Spec for a validated (tech, subarrays,
// partitions) selection. PCM pulls its write occupancy from the
// technology preset table, the same source Compare() renders.
func SpecFor(tech string, subarrays, partitions uint32) (Spec, error) {
	if err := ValidateSelection(tech, subarrays, partitions); err != nil {
		return Spec{}, err
	}
	switch tech {
	case "", "sdram":
		return Spec{}, nil
	case "salp":
		return Spec{Backend: BackendSALP, Units: max(subarrays, 1)}, nil
	default: // "pcm"
		return Spec{Backend: BackendPCM, Units: max(partitions, 1), WriteBusy: presets[PCM].WriteBusy}, nil
	}
}

// Need is what an access to one row asks of its unit this cycle.
type Need uint8

const (
	// NeedWait: the unit is still completing a transition (tRCD, tRP,
	// tRFC or PCM write occupancy).
	NeedWait Need = iota
	// NeedAccess: the column access is legal now.
	NeedAccess
	// NeedActivate: the unit is precharged; the row must be opened.
	NeedActivate
	// NeedPrecharge: the unit holds another row, which must be closed.
	NeedPrecharge
)

// unit is one row-state machine: an internal bank (SDRAM), a subarray
// (SALP), or a partition (PCM).
type unit struct {
	active   bool
	accessed bool // open row touched by a column access (row-hit accounting)
	wrBusy   bool // readyAt extended by PCM write occupancy
	row      uint32
	readyAt  uint64
}

const never = ^uint64(0)

// Model is the executable bank state machine for one device: its
// internal banks of units each. It holds no store references and no
// cross-device state, so devices (and their models) clone by
// construction. It counts row and back-end events into the owning
// device's Stats.
type Model struct {
	geom    addr.SDRAMGeom
	rowless bool   // BackendSRAM: no row state, every access legal at once
	units   uint32 // per internal bank
	log2u   uint32
	mask    uint32 // units - 1; 0 selects the single-unit fast path
	trcd    uint64
	trp     uint64
	trfc    uint64
	wbusy   uint64
	us      []unit
	stall   []uint64 // last cycle a write-busy stall was counted, per unit
	stats   *Stats
}

// init builds the state machine for spec over the device geometry with
// the given core timing, counting into stats.
func (m *Model) init(spec Spec, geom addr.SDRAMGeom, t Timing, stats *Stats) {
	u := max(spec.Units, 1)
	log2 := uint32(0)
	for 1<<log2 < u {
		log2++
	}
	*m = Model{
		geom:    geom,
		rowless: spec.Backend == BackendSRAM,
		units:   u,
		log2u:   log2,
		mask:    u - 1,
		trcd:    t.TRCD,
		trp:     t.TRP,
		trfc:    t.TRFC,
		wbusy:   spec.WriteBusy,
		us:      make([]unit, geom.InternalBanks*u),
		stall:   make([]uint64, geom.InternalBanks*u),
		stats:   stats,
	}
	m.reset()
}

// reset returns every unit to the precharged power-on state, keeping
// the backing arrays.
func (m *Model) reset() {
	for i := range m.us {
		m.us[i] = unit{}
		m.stall[i] = never
	}
}

// unitOf maps a row to its unit within an internal bank by XOR-folding
// the row bits down to log2(units). Folding (rather than taking low or
// high bits) spreads both small-stride neighbors and the large
// power-of-two row distances vector workloads produce across units, so
// conflicting vectors land in different subarrays.
func (m *Model) unitOf(row uint32) uint32 {
	if m.mask == 0 {
		return 0
	}
	u := uint32(0)
	for x := row; x != 0; x >>= m.log2u {
		u ^= x
	}
	return u & m.mask
}

// Units returns the device's row-state unit count, the bound of every
// flat unit index.
func (m *Model) Units() uint32 { return uint32(len(m.us)) }

// UnitIndex flattens (internal bank, row) to the model's flat unit
// index, the key of Need and OpenRow. A caller that revisits one row
// caches it instead of folding the row each time.
func (m *Model) UnitIndex(ib, row uint32) uint32 {
	return ib*m.units + m.unitOf(row)
}

func (m *Model) unitFor(ib, row uint32) *unit {
	return &m.us[ib*m.units+m.unitOf(row)]
}

// OpenRow reports whether unit u (a flat UnitIndex) holds a row open,
// and which. Rowless units never do.
func (m *Model) OpenRow(u uint32) (uint32, bool) {
	un := &m.us[u]
	if !un.active {
		return 0, false
	}
	return un.row, true
}

// Need answers what an access to row, in flat unit u, must do at
// cycle: wait, activate, precharge, or access. A rowless unit always
// answers access. Waiting on a unit still busy with a PCM write counts
// one partition stall per unit per cycle.
func (m *Model) Need(u, row uint32, cycle uint64) Need {
	if m.rowless {
		return NeedAccess
	}
	un := &m.us[u]
	switch {
	case cycle < un.readyAt:
		if un.wrBusy && m.stall[u] != cycle {
			m.stall[u] = cycle
			m.stats.PartitionStalls++
		}
		return NeedWait
	case !un.active:
		return NeedActivate
	case un.row != row:
		return NeedPrecharge
	}
	return NeedAccess
}

// MaxReadyAt returns the latest pending-transition completion across
// the internal bank's units — the bank-wide "ready" the refresh path
// gates on. With one unit per bank it is exactly the unit's readyAt.
func (m *Model) MaxReadyAt(ib uint32) uint64 {
	base := ib * m.units
	ready := m.us[base].readyAt
	for i := uint32(1); i < m.units; i++ {
		if m.us[base+i].readyAt > ready {
			ready = m.us[base+i].readyAt
		}
	}
	return ready
}

// PrechargeTarget scans the internal bank for refresh preparation: it
// returns an open row whose unit is ready to precharge at cycle, or
// ready=false with open=true while open rows exist but none can close
// yet, or open=false when the bank is fully precharged.
func (m *Model) PrechargeTarget(ib uint32, cycle uint64) (row uint32, ready, open bool) {
	base := ib * m.units
	for i := uint32(0); i < m.units; i++ {
		u := &m.us[base+i]
		if !u.active {
			continue
		}
		open = true
		if cycle >= u.readyAt {
			return u.row, true, true
		}
	}
	return 0, false, open
}

// rowCmdOnSRAM is the protocol violation of a row command (ACT, PRE,
// REF) on the rowless back end.
func rowCmdOnSRAM(r Request, cycle uint64) error {
	return violation(ViolationProtocol, r.Cmd, r.IBank, cycle, "%v illegal on rowless (SRAM) device", r.Cmd)
}

// checkActivate checks ACTIVATE legality without changing state.
func (m *Model) checkActivate(r Request, cycle uint64) error {
	if m.rowless {
		return rowCmdOnSRAM(r, cycle)
	}
	u := m.unitFor(r.IBank, r.Row)
	switch {
	case u.active:
		return violation(ViolationState, r.Cmd, r.IBank, cycle, "ACT to open internal bank %d (row %d open) at cycle %d", r.IBank, u.row, cycle)
	case cycle < u.readyAt:
		return violation(ViolationTiming, r.Cmd, r.IBank, cycle, "ACT to internal bank %d during precharge (tRP) at cycle %d < %d", r.IBank, cycle, u.readyAt)
	case r.Row >= m.geom.Rows:
		return violation(ViolationRange, r.Cmd, r.IBank, cycle, "row %d out of range", r.Row)
	}
	return nil
}

// activate opens row in its unit; checkActivate has passed.
func (m *Model) activate(ib, row uint32, cycle uint64) {
	u := m.unitFor(ib, row)
	u.active = true
	u.row = row
	u.readyAt = cycle + m.trcd
	u.accessed = false
	u.wrBusy = false
	m.stats.Activates++
}

// checkAccess checks READ/WRITE legality without changing state. A
// rowless device checks only the address range.
func (m *Model) checkAccess(r Request, cycle uint64) error {
	if m.rowless {
		if r.Col >= m.geom.RowWords || r.Row >= m.geom.Rows {
			return violation(ViolationRange, r.Cmd, r.IBank, cycle, "access out of range (row %d col %d)", r.Row, r.Col)
		}
		return nil
	}
	u := m.unitFor(r.IBank, r.Row)
	switch {
	case !u.active:
		return violation(ViolationState, r.Cmd, r.IBank, cycle, "%v to precharged internal bank %d at cycle %d", r.Cmd, r.IBank, cycle)
	case cycle < u.readyAt:
		return violation(ViolationTiming, r.Cmd, r.IBank, cycle, "%v to internal bank %d before tRCD at cycle %d < %d", r.Cmd, r.IBank, cycle, u.readyAt)
	case r.Col >= m.geom.RowWords:
		return violation(ViolationRange, r.Cmd, r.IBank, cycle, "column %d out of range", r.Col)
	case r.Row != u.row:
		// The real device would silently access the open row; the
		// simulator treats a mismatched scheduler intent as a bug.
		return violation(ViolationRange, r.Cmd, r.IBank, cycle, "%v intends row %d but internal bank %d has row %d open", r.Cmd, r.Row, r.IBank, u.row)
	}
	return nil
}

// access commits a column access checkAccess has passed: row-hit and
// subarray-parallelism accounting, the PCM write occupancy, and the
// auto-precharge rider. A rowless device has nothing to commit.
func (m *Model) access(ib, row uint32, write, auto bool, cycle uint64) {
	if m.rowless {
		return
	}
	u := m.unitFor(ib, row)
	if u.accessed {
		m.stats.RowHits++
	}
	u.accessed = true
	if m.mask != 0 {
		base := ib * m.units
		for i := uint32(0); i < m.units; i++ {
			if o := &m.us[base+i]; o.active && o != u {
				m.stats.SubarrayHits++
				break
			}
		}
	}
	var occupied uint64
	if write && m.wbusy > 0 {
		occupied = m.wbusy
		u.wrBusy = true
	}
	if auto {
		u.active = false
		u.wrBusy = occupied > 0
		u.readyAt = cycle + m.trp + occupied
		m.stats.Precharges++
	} else if occupied > 0 {
		u.readyAt = cycle + occupied
	}
}

// checkPrecharge checks PRECHARGE legality without changing state.
func (m *Model) checkPrecharge(r Request, cycle uint64) error {
	if m.rowless {
		return rowCmdOnSRAM(r, cycle)
	}
	u := m.unitFor(r.IBank, r.Row)
	switch {
	case !u.active:
		return violation(ViolationState, r.Cmd, r.IBank, cycle, "PRE to precharged internal bank %d at cycle %d", r.IBank, cycle)
	case cycle < u.readyAt:
		return violation(ViolationTiming, r.Cmd, r.IBank, cycle, "PRE to internal bank %d before tRCD at cycle %d < %d", r.IBank, cycle, u.readyAt)
	}
	return nil
}

// precharge closes the unit owning (ib, row); checkPrecharge has
// passed. A precharge whose intended row differs from the open one is a
// row conflict — the scheduler is evicting a row to make room — and is
// counted; refresh precharges pass the open row itself.
func (m *Model) precharge(ib, row uint32, cycle uint64) {
	u := m.unitFor(ib, row)
	if row != u.row {
		m.stats.RowConflicts++
	}
	u.active = false
	u.wrBusy = false
	u.readyAt = cycle + m.trp
	m.stats.Precharges++
}

// checkRefresh verifies the whole device may accept AUTO REFRESH: every
// unit precharged and idle. It reports the first offending internal
// bank, walking units in bank-major order so single-unit devices see
// the historical bank walk exactly.
func (m *Model) checkRefresh(cycle uint64) error {
	if m.rowless {
		return rowCmdOnSRAM(Request{Cmd: Refresh}, cycle)
	}
	for i := range m.us {
		ib := uint32(i) / m.units
		if m.us[i].active {
			return violation(ViolationRefresh, Refresh, ib, cycle, "REF with internal bank %d open at cycle %d", ib, cycle)
		}
		if cycle < m.us[i].readyAt {
			return violation(ViolationRefresh, Refresh, ib, cycle, "REF during precharge of internal bank %d at cycle %d", ib, cycle)
		}
	}
	return nil
}

// refresh applies the AUTO REFRESH occupancy: every unit busy for tRFC.
func (m *Model) refresh(cycle uint64) {
	for i := range m.us {
		m.us[i].readyAt = cycle + m.trfc
	}
}
