// The executable device model: the bank state machine extracted from
// internal/sdram so that a bank is no longer the finest concurrency
// unit. A Model tracks one row-state machine per *unit* — the whole
// internal bank for plain SDRAM, a subarray for SALP (Kim et al.:
// overlapping ACTIVATEs to different subarrays of one bank), or a
// partition for PCM (Song et al.: partition-level parallelism with
// asymmetric read/write occupancy).
//
// internal/sdram delegates every state transition, timing check and
// legal-op query here, deriving the unit from (internal bank, row) on
// every command; internal/bankctl holds the same model and reads a
// unit's row state by the flat index it cached when its vector context
// last moved (UnitIndex, then OpenRow and ReadyAt). With Units == 1 and
// WriteBusy == 0 the model is exactly the historical SDRAM bank state
// machine, transition for transition — the seed-cycle golden pins this.
package dramtech

import "fmt"

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

// UnitCount normalizes Units (0 means 1).
func (s Spec) UnitCount() uint32 {
	if s.Units == 0 {
		return 1
	}
	return s.Units
}

// Validate checks the spec's internal consistency.
func (s Spec) Validate() error {
	u := s.UnitCount()
	if u&(u-1) != 0 {
		return fmt.Errorf("dramtech: Units=%d is not a power of two", s.Units)
	}
	if s.Backend == BackendSDRAM && u > 1 {
		return fmt.Errorf("dramtech: plain SDRAM has one unit per bank (Units=%d)", s.Units)
	}
	return nil
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
		if s := max32(subarrays, 1); s&(s-1) != 0 {
			return fmt.Errorf("dramtech: SubarraysPerBank=%d is not a power of two", subarrays)
		}
	case "pcm":
		if subarrays > 1 {
			return fmt.Errorf("dramtech: SubarraysPerBank=%d requires tech \"salp\", not \"pcm\"", subarrays)
		}
		if p := max32(partitions, 1); p&(p-1) != 0 {
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
		return Spec{Backend: BackendSALP, Units: max32(subarrays, 1)}, nil
	default: // "pcm"
		t, err := ByKind(PCM)
		if err != nil {
			return Spec{}, err
		}
		return Spec{Backend: BackendPCM, Units: max32(partitions, 1), WriteBusy: t.WriteBusy}, nil
	}
}

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// RefusalCode classifies why the state machine refuses an operation.
type RefusalCode uint8

const (
	// RefusalNone: the operation is legal.
	RefusalNone RefusalCode = iota
	// RefusalUnitOpen: ACTIVATE to a unit that already holds a row.
	RefusalUnitOpen
	// RefusalUnitClosed: access or PRECHARGE to a precharged unit.
	RefusalUnitClosed
	// RefusalBusy: the unit's pending transition (tRCD, tRP, tRFC, PCM
	// write occupancy) has not completed.
	RefusalBusy
	// RefusalRowMismatch: access intends a row other than the open one.
	RefusalRowMismatch
)

// Refusal reports a refused operation with the state the caller needs
// to format a diagnostic: the conflicting open row or the cycle the
// unit becomes ready.
type Refusal struct {
	Code    RefusalCode
	Row     uint32 // open row, for RefusalUnitOpen / RefusalRowMismatch
	ReadyAt uint64 // for RefusalBusy
}

// Counters are the model-level statistics the back ends expose beyond
// the device's command counts.
type Counters struct {
	// SubarrayHits counts accesses served from an open row while at
	// least one *other* unit of the same internal bank also held a row
	// open — intra-bank parallelism actually exploited. Always zero
	// with one unit per bank.
	SubarrayHits uint64
	// RowConflicts counts precharges forced by a conflicting row: the
	// scheduler needed a row other than the one the target unit held.
	RowConflicts uint64
	// PartitionStalls counts cycles an otherwise-issuable operation
	// waited on a unit still occupied by an earlier WRITE (PCM write
	// asymmetry). Always zero when WriteBusy is zero.
	PartitionStalls uint64
}

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

// Model is the executable bank state machine for one device: ibanks
// internal banks of spec.UnitCount() units each. It holds no store
// references and no cross-device state, so devices (and their models)
// clone by construction and tick concurrently per channel.
type Model struct {
	spec   Spec
	units  uint32 // per internal bank
	log2u  uint32
	mask   uint32 // units - 1; 0 selects the single-unit fast path
	trcd   uint64
	trp    uint64
	trfc   uint64
	wbusy  uint64
	us     []unit
	stall  []uint64 // last cycle a write-busy stall was counted, per unit
	ctr    Counters
	ibanks uint32
}

// NewModel builds the state machine for spec over ibanks internal banks
// with the given core timings (in controller cycles).
func NewModel(spec Spec, ibanks uint32, trcd, trp, trfc uint64) *Model {
	u := spec.UnitCount()
	log2 := uint32(0)
	for 1<<log2 < u {
		log2++
	}
	m := &Model{
		spec:   spec,
		units:  u,
		log2u:  log2,
		mask:   u - 1,
		trcd:   trcd,
		trp:    trp,
		trfc:   trfc,
		wbusy:  spec.WriteBusy,
		us:     make([]unit, ibanks*u),
		stall:  make([]uint64, ibanks*u),
		ibanks: ibanks,
	}
	for i := range m.stall {
		m.stall[i] = never
	}
	return m
}

// Reset returns every unit to the precharged power-on state and zeroes
// the counters, keeping the backing arrays.
func (m *Model) Reset() {
	for i := range m.us {
		m.us[i] = unit{}
		m.stall[i] = never
	}
	m.ctr = Counters{}
}

// Spec returns the model's backing specification.
func (m *Model) Spec() Spec { return m.spec }

// Counters returns a copy of the model-level statistics.
func (m *Model) Counters() Counters { return m.ctr }

// UnitOf maps a row to its unit within an internal bank by XOR-folding
// the row bits down to log2(units). Folding (rather than taking low or
// high bits) spreads both small-stride neighbors and the large
// power-of-two row distances vector workloads produce across units, so
// conflicting vectors land in different subarrays.
func (m *Model) UnitOf(row uint32) uint32 {
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
// index, the key of OpenRow, ReadyAt and NoteBlocked. A caller that
// revisits one row caches it instead of folding the row each time.
func (m *Model) UnitIndex(ib, row uint32) uint32 {
	return ib*m.units + m.UnitOf(row)
}

func (m *Model) unitFor(ib, row uint32) *unit {
	return &m.us[ib*m.units+m.UnitOf(row)]
}

// OpenRow reports whether unit u (a flat UnitIndex) holds a row open,
// and which.
func (m *Model) OpenRow(u uint32) (uint32, bool) {
	un := &m.us[u]
	if !un.active {
		return 0, false
	}
	return un.row, true
}

// ReadyAt returns the cycle at which unit u (a flat UnitIndex) accepts
// its next operation.
func (m *Model) ReadyAt(u uint32) uint64 { return m.us[u].readyAt }

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

// NoteBlocked records that the caller wanted to operate on unit u (a
// flat UnitIndex) this cycle but found it busy. Only write-occupancy
// busy spans count (PartitionStalls), deduplicated per unit per cycle;
// for symmetric back ends this is a no-op.
func (m *Model) NoteBlocked(u uint32, cycle uint64) {
	if m.wbusy == 0 {
		return
	}
	un := &m.us[u]
	if un.wrBusy && cycle < un.readyAt && m.stall[u] != cycle {
		m.stall[u] = cycle
		m.ctr.PartitionStalls++
	}
}

// CanActivate checks ACTIVATE legality on the unit owning (ib, row)
// without changing state.
func (m *Model) CanActivate(ib, row uint32, cycle uint64) Refusal {
	u := m.unitFor(ib, row)
	if u.active {
		return Refusal{Code: RefusalUnitOpen, Row: u.row}
	}
	if cycle < u.readyAt {
		return Refusal{Code: RefusalBusy, ReadyAt: u.readyAt}
	}
	return Refusal{}
}

// Activate opens row in its unit; the caller has checked CanActivate.
func (m *Model) Activate(ib, row uint32, cycle uint64) {
	u := m.unitFor(ib, row)
	u.active = true
	u.row = row
	u.readyAt = cycle + m.trcd
	u.accessed = false
	u.wrBusy = false
}

// CanAccess checks READ/WRITE legality on the unit owning (ib, row)
// without changing state.
func (m *Model) CanAccess(ib, row uint32, cycle uint64) Refusal {
	u := m.unitFor(ib, row)
	if !u.active {
		return Refusal{Code: RefusalUnitClosed}
	}
	if cycle < u.readyAt {
		return Refusal{Code: RefusalBusy, ReadyAt: u.readyAt}
	}
	if row != u.row {
		return Refusal{Code: RefusalRowMismatch, Row: u.row}
	}
	return Refusal{}
}

// Access commits a column access the caller has checked with CanAccess:
// row-hit accounting, subarray-parallelism accounting, the PCM write
// occupancy, and the auto-precharge rider. It reports whether the
// access hit a row already touched since its activate.
func (m *Model) Access(ib, row uint32, write, auto bool, cycle uint64) (rowHit bool) {
	u := m.unitFor(ib, row)
	rowHit = u.accessed
	u.accessed = true
	if m.mask != 0 {
		base := ib * m.units
		for i := uint32(0); i < m.units; i++ {
			if o := &m.us[base+i]; o.active && o != u {
				m.ctr.SubarrayHits++
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
	} else if occupied > 0 {
		u.readyAt = cycle + occupied
	}
	return rowHit
}

// CanPrecharge checks PRECHARGE legality on the unit owning (ib, row)
// without changing state.
func (m *Model) CanPrecharge(ib, row uint32, cycle uint64) Refusal {
	u := m.unitFor(ib, row)
	if !u.active {
		return Refusal{Code: RefusalUnitClosed}
	}
	if cycle < u.readyAt {
		return Refusal{Code: RefusalBusy, ReadyAt: u.readyAt}
	}
	return Refusal{}
}

// Precharge closes the unit owning (ib, row); the caller has checked
// CanPrecharge. A precharge whose intended row differs from the open
// one is a row conflict — the scheduler is evicting a row to make
// room — and is counted; refresh precharges pass the open row itself.
func (m *Model) Precharge(ib, row uint32, cycle uint64) {
	u := m.unitFor(ib, row)
	if row != u.row {
		m.ctr.RowConflicts++
	}
	u.active = false
	u.wrBusy = false
	u.readyAt = cycle + m.trp
}

// RefreshCheck verifies the whole device may accept AUTO REFRESH: every
// unit precharged and idle. It reports the first offending internal
// bank, walking units in bank-major order so single-unit devices see
// the historical bank walk exactly.
func (m *Model) RefreshCheck(cycle uint64) (ib uint32, ref Refusal) {
	for i := range m.us {
		if m.us[i].active {
			return uint32(i) / m.units, Refusal{Code: RefusalUnitOpen, Row: m.us[i].row}
		}
		if cycle < m.us[i].readyAt {
			return uint32(i) / m.units, Refusal{Code: RefusalBusy, ReadyAt: m.us[i].readyAt}
		}
	}
	return 0, Refusal{}
}

// Refresh applies the AUTO REFRESH occupancy: every unit busy for tRFC.
func (m *Model) Refresh(cycle uint64) {
	for i := range m.us {
		m.us[i].readyAt = cycle + m.trfc
	}
}
