// The executable device: one external bank, its command pins, its
// read-out pipeline and its refresh obligation. Row state, timing
// checks and the per-back-end rules live in the Model (model.go).
//
// One word moves per READ/WRITE (the external bank is one word wide);
// column accesses pipeline, so an open row streams one word per cycle.
// Read data appears CL cycles after the READ command, modeled by a short
// output pipeline drained by Tick.

package dramtech

import (
	"fmt"

	"pva/internal/addr"
	"pva/internal/fault"
	"pva/internal/memsys"
)

// Timing holds the device timing parameters in controller cycles.
type Timing struct {
	TRCD uint64 // ACTIVATE to READ/WRITE delay ("RAS latency")
	CL   uint64 // READ command to data out ("CAS latency")
	TRP  uint64 // PRECHARGE to ACTIVATE delay

	// RefreshInterval is the average spacing of the AUTO REFRESH
	// commands the device needs (the per-row share of the 64 ms refresh
	// obligation of Section 2.2). Zero disables refresh, matching the
	// paper's evaluation, which ignores it.
	RefreshInterval uint64
	// TRFC is the refresh cycle time: all banks must be precharged, and
	// the device is unavailable for this long after a Refresh command.
	TRFC uint64
}

// ClosedAccess is the cost of one word from a closed row when the row is
// closed again after it: open the row, read the word out, precharge.
func (t Timing) ClosedAccess() uint64 { return t.TRCD + t.CL + t.TRP }

// RowSwitch is the cost of leaving an open row for another row of the
// same unit: precharge, then activate.
func (t Timing) RowSwitch() uint64 { return t.TRP + t.TRCD }

// ReadToWrite is the least gap from a READ command to a WRITE command on
// one device's data pins: the read data leaves the pins CL cycles after
// the READ, and the bus takes one more cycle to turn around.
func (t Timing) ReadToWrite() uint64 { return t.CL + 1 }

// MaxPostponedRefreshes is how many refresh obligations a controller may
// defer before the strict checker treats the device as starved (JEDEC
// SDRAM allows postponing a bounded burst; eight is the customary bound).
const MaxPostponedRefreshes = 8

// PaperTiming is the prototype's timing: RAS and CAS latencies of two
// cycles, precharge of two cycles.
func PaperTiming() Timing { return Timing{TRCD: 2, CL: 2, TRP: 2} }

// PCMTiming is the phase-change back end's core timing: slower row
// opens, cheap precharge (the row buffer is just a latch), and no
// refresh obligation — PCM cells are non-volatile. The write-side
// asymmetry lives in Spec.WriteBusy, not here, because it occupies only
// the written partition.
func PCMTiming() Timing { return Timing{TRCD: 4, CL: 2, TRP: 1} }

// Cmd is an SDRAM command.
type Cmd uint8

const (
	// Nop does nothing this cycle.
	Nop Cmd = iota
	// Activate opens a row in an internal bank.
	Activate
	// Read reads one word from the open row.
	Read
	// Write writes one word to the open row.
	Write
	// Precharge closes an internal bank's row.
	Precharge
	// Refresh performs one AUTO REFRESH: all internal banks must be
	// precharged, and the whole device is busy for TRFC.
	Refresh
)

// String implements fmt.Stringer.
func (c Cmd) String() string {
	switch c {
	case Nop:
		return "NOP"
	case Activate:
		return "ACT"
	case Read:
		return "RD"
	case Write:
		return "WR"
	case Precharge:
		return "PRE"
	case Refresh:
		return "REF"
	default:
		return fmt.Sprintf("CMD(%d)", uint8(c))
	}
}

// Request is one command presented to the device at the current cycle.
type Request struct {
	Cmd   Cmd
	IBank uint32 // internal bank
	Row   uint32 // for Activate
	Col   uint32 // for Read/Write
	Auto  bool   // auto-precharge rider on Read/Write
	Data  uint32 // for Write
	Tag   uint64 // caller cookie returned with read data
}

// ReadResult is one word of read data leaving the device. A non-nil
// Err marks a poisoned word: every ECC replay of the array read came
// back with a detected double-bit error (Err is a
// *fault.UncorrectableError), and Data must not be used.
type ReadResult struct {
	Data uint32
	Tag  uint64
	Err  error
}

// Stats counts device activity.
type Stats struct {
	Activates  uint64
	Precharges uint64
	Reads      uint64
	Writes     uint64
	RowHits    uint64 // reads+writes issued to a row opened by an earlier access
	Refreshes  uint64

	// Back-end counters. SubarrayHits counts accesses served while
	// another unit of the same internal bank also held a row open —
	// intra-bank parallelism actually exploited, zero with one unit per
	// bank. RowConflicts counts precharges that evicted a row other
	// than the one they name. PartitionStalls counts cycles an
	// otherwise issuable operation waited on a unit still busy with an
	// earlier WRITE, zero without PCM write occupancy.
	SubarrayHits    uint64
	RowConflicts    uint64
	PartitionStalls uint64

	// Latency split: total command-to-data cycles for reads and total
	// occupancy cycles for writes, exposing the PCM read/write asymmetry
	// (equal per-op for symmetric technologies).
	ReadLatencyCycles  uint64
	WriteLatencyCycles uint64

	// Fault-path counters (zero unless an injector is installed).
	CorrectedECC   uint64 // single-bit flips corrected by SEC-DED
	UncorrectedECC uint64 // double-bit flips detected (each triggers a replay or poisons the word)
	ECCRetries     uint64 // array-read replays after an uncorrectable detection
}

// Device is one external bank: a 32-bit wide device with internal
// banks. Row state, timing checks and refresh legality live in its
// Model, so the same device drives plain SDRAM, SALP subarrays, PCM
// partitions or rowless SRAM depending on the Spec it was built with.
type Device struct {
	geom   addr.SDRAMGeom
	timing Timing
	model  Model
	store  *memsys.Store
	base   uint32 // this device's external bank number, for store addressing
	stride uint32 // external bank count (word interleave step)

	// compose, when set, overrides the word-interleave store addressing:
	// it maps a device word index back to the global word address. Bank
	// controllers under a non-default address decoder install their
	// decoder's inverse here.
	compose func(bankWord uint32) uint32

	cycle  uint64
	issued bool // a non-NOP command took this cycle's command pins

	pipe  []pipeEntry  // CL-deep read-out pipeline
	out   []ReadResult // Tick's reusable return buffer (valid until the next Tick)
	stats Stats        // the model counts its row and back-end events here too

	refreshDebt int64  // refresh obligations accrued minus performed
	nextRefresh uint64 // cycle at which the next obligation accrues

	// inj, when non-nil, injects transient read faults; the read path
	// then runs every array read through the SEC-DED codec.
	inj *fault.Injector
}

type pipeEntry struct {
	at  uint64
	res ReadResult
}

// uncorrectableCap bounds the replay loop when the plan asks for
// unlimited retries, so a pathological plan (double-flip rate 1.0)
// terminates with a poisoned word instead of spinning.
const uncorrectableCap = 1 << 16

// pushRead runs one array read through the (optional) fault path and
// enqueues the result on the CL-deep output pipeline. Clean path: the
// stored word, CL cycles out. Faulty path: the word is encoded through
// the SEC-DED codec and the injector's flips applied — single-bit
// errors are corrected in place at no latency cost; a detected
// double-bit error replays the array read after an exponential backoff,
// and a read still dirty past the retry bound is delivered poisoned
// (ReadResult.Err) for the controller to surface.
func (d *Device) pushRead(a uint32, tag uint64) {
	at := d.cycle + d.timing.CL
	if d.inj == nil {
		d.pipe = append(d.pipe, pipeEntry{at: at, res: ReadResult{Data: d.store.Read(a), Tag: tag}})
		return
	}
	data := d.store.Read(a)
	maxRetries := d.inj.MaxRetries()
	for attempt := 0; ; attempt++ {
		flips := d.inj.ReadFault(d.base, d.cycle, a, attempt)
		if len(flips) == 0 {
			d.pipe = append(d.pipe, pipeEntry{at: at, res: ReadResult{Data: data, Tag: tag}})
			return
		}
		code := fault.Encode(data)
		for _, b := range flips {
			code ^= 1 << b
		}
		decoded, status := fault.Decode(code)
		if status == fault.ECCCorrected {
			d.stats.CorrectedECC++
			d.pipe = append(d.pipe, pipeEntry{at: at, res: ReadResult{Data: decoded, Tag: tag}})
			return
		}
		d.stats.UncorrectedECC++
		exhausted := maxRetries >= 0 && attempt >= maxRetries
		if exhausted || attempt >= uncorrectableCap {
			d.pipe = append(d.pipe, pipeEntry{at: at, res: ReadResult{
				Tag: tag,
				Err: &fault.UncorrectableError{Addr: a, Bank: d.base, Attempts: attempt + 1},
			}})
			return
		}
		d.stats.ECCRetries++
		at += d.inj.BackoffDelay(attempt + 1)
	}
}

// NewDevice returns the device for external bank number bank of an
// M-bank word-interleaved system, backed by the given store. The device
// owns word addresses a with a mod M == bank, stored at per-bank index
// a / M. The spec selects the back end: the zero Spec is plain SDRAM,
// BackendSALP adds per-subarray row state, BackendPCM per-partition row
// state and write occupancy, and BackendSRAM drops rows altogether. The
// device runs on spec.Timing(t).
func NewDevice(geom addr.SDRAMGeom, t Timing, spec Spec, store *memsys.Store, bank, banks uint32) *Device {
	t = spec.Timing(t)
	d := &Device{
		geom:        geom,
		timing:      t,
		store:       store,
		base:        bank,
		stride:      banks,
		nextRefresh: t.RefreshInterval,
	}
	d.model.init(spec, geom, t, &d.stats)
	return d
}

// Reset returns the device to its power-on state — banks precharged,
// pipeline empty, counters zeroed, clock at zero — without reallocating
// any backing array. The store, geometry, compose hook, and injector are
// untouched; cached sessions call this on reuse.
func (d *Device) Reset() {
	d.model.reset()
	d.cycle = 0
	d.issued = false
	d.pipe = d.pipe[:0]
	d.stats = Stats{}
	d.refreshDebt = 0
	d.nextRefresh = d.timing.RefreshInterval
}

// RefreshDue reports whether at least one refresh obligation is
// outstanding. Controllers should precharge all banks and issue a
// Refresh command before the debt reaches MaxPostponedRefreshes.
func (d *Device) RefreshDue() bool { return d.refreshDebt > 0 }

// RefreshDebt returns the outstanding refresh obligations (may be
// negative when refreshes were pulled in early).
func (d *Device) RefreshDebt() int64 { return d.refreshDebt }

// Stats returns a copy of the activity counters.
func (d *Device) Stats() Stats { return d.stats }

// Timing returns the timing the device runs on (see Spec.Timing).
func (d *Device) Timing() Timing { return d.timing }

// Model exposes the device's row-state machine. Bank controllers read
// unit state through it; Issue stays the one command boundary and
// re-derives every command's unit from (internal bank, row), so a
// controller holding a stale unit fails there with a state violation.
func (d *Device) Model() *Model { return &d.model }

// SetCompose installs a custom device-word-to-global-address mapping,
// replacing the default word-interleave formula. nil restores the
// default.
func (d *Device) SetCompose(f func(bankWord uint32) uint32) { d.compose = f }

// SetInjector installs a fault injector on the read path (nil: faults
// off). With an injector, every array read is encoded through the
// SEC-DED codec, injected bit flips are corrected or detected, and
// uncorrectable words are replayed with backoff up to the plan's retry
// bound.
func (d *Device) SetInjector(in *fault.Injector) { d.inj = in }

// wordAddr converts device coordinates back to the global word address.
func (d *Device) wordAddr(c addr.Coord) uint32 {
	if d.compose != nil {
		return d.compose(d.geom.Compose(c))
	}
	return d.geom.Compose(c)*d.stride + d.base
}

// Issue presents one command for the current cycle. At most one non-NOP
// command may be issued per cycle; violations of the state machine or of
// timing return a *ViolationError and leave the device unchanged.
func (d *Device) Issue(r Request) error {
	if r.Cmd == Nop {
		return nil
	}
	if d.issued {
		return violation(ViolationProtocol, r.Cmd, r.IBank, d.cycle, "second command %v in cycle %d", r.Cmd, d.cycle)
	}
	if r.IBank >= d.geom.InternalBanks {
		return violation(ViolationRange, r.Cmd, r.IBank, d.cycle, "internal bank %d out of range", r.IBank)
	}
	if r.Cmd != Refresh && d.timing.RefreshInterval > 0 && d.refreshDebt > MaxPostponedRefreshes {
		return violation(ViolationRefresh, r.Cmd, r.IBank, d.cycle, "refresh starved at cycle %d (debt %d)", d.cycle, d.refreshDebt)
	}
	switch r.Cmd {
	case Refresh:
		if err := d.model.checkRefresh(d.cycle); err != nil {
			return err
		}
		d.model.refresh(d.cycle)
		if d.refreshDebt > -MaxPostponedRefreshes {
			d.refreshDebt--
		}
		d.stats.Refreshes++
	case Activate:
		if err := d.model.checkActivate(r, d.cycle); err != nil {
			return err
		}
		d.model.activate(r.IBank, r.Row, d.cycle)
	case Read, Write:
		if err := d.model.checkAccess(r, d.cycle); err != nil {
			return err
		}
		a := d.wordAddr(addr.Coord{IBank: r.IBank, Row: r.Row, Col: r.Col})
		if r.Cmd == Read {
			d.pushRead(a, r.Tag)
			d.stats.Reads++
			d.stats.ReadLatencyCycles += d.timing.CL
		} else {
			d.store.Write(a, r.Data)
			d.stats.Writes++
			d.stats.WriteLatencyCycles += 1 + d.model.wbusy
		}
		d.model.access(r.IBank, r.Row, r.Cmd == Write, r.Auto, d.cycle)
	case Precharge:
		if err := d.model.checkPrecharge(r, d.cycle); err != nil {
			return err
		}
		d.model.precharge(r.IBank, r.Row, d.cycle)
	default:
		return violation(ViolationProtocol, r.Cmd, r.IBank, d.cycle, "unknown command %d", uint8(r.Cmd))
	}
	d.issued = true
	return nil
}

// NoEvent is returned by next-event queries when the device has no
// pending obligation of that kind. It is the one "never" of every wake
// in the simulator: the bank controllers and the PVA session's cycle
// loop use it too.
const NoEvent = ^uint64(0)

// NextDataAt returns the earliest cycle at which a read-pipeline entry
// matures (the controller must Tick the device at that cycle to deliver
// the data on time), or NoEvent when the pipeline is empty. This is the
// restimer exposure the event-driven front end consults before skipping
// idle cycles.
func (d *Device) NextDataAt() uint64 {
	next := uint64(NoEvent)
	for _, e := range d.pipe {
		if e.at < next {
			next = e.at
		}
	}
	return next
}

// NextRefreshAt returns the cycle at which the next refresh obligation
// demands a real controller cycle: the accrual cycle of the next
// obligation, or the current cycle when debt is already outstanding.
// NoEvent when refresh is disabled.
func (d *Device) NextRefreshAt() uint64 {
	if d.timing.RefreshInterval == 0 {
		return NoEvent
	}
	if d.refreshDebt > 0 {
		return d.cycle
	}
	return d.nextRefresh
}

// AdvanceIdle jumps the device clock forward by delta cycles during
// which the controller guarantees no command is issued and no read data
// matures. Refresh obligations accrued across the span are credited
// exactly as per-cycle Ticks would have. It is an error to skip past a
// maturing pipeline entry — that would deliver read data late.
func (d *Device) AdvanceIdle(delta uint64) error {
	if delta == 0 {
		return nil
	}
	if d.issued {
		return fmt.Errorf("dramtech: AdvanceIdle in cycle %d after a command was issued", d.cycle)
	}
	target := d.cycle + delta
	for _, e := range d.pipe {
		if e.at < target {
			return fmt.Errorf("dramtech: AdvanceIdle to cycle %d past read data maturing at %d", target, e.at)
		}
	}
	d.cycle = target
	for d.timing.RefreshInterval > 0 && d.cycle >= d.nextRefresh {
		d.refreshDebt++
		d.nextRefresh += d.timing.RefreshInterval
	}
	return nil
}

// Tick ends the current cycle: it returns any read data whose CAS
// latency matured this cycle (a READ issued at cycle c delivers at cycle
// c+CL), then advances the clock. Call exactly once per controller
// cycle, after Issue. The returned slice is the device's own buffer,
// overwritten by the next Tick; callers consume it before ticking again.
func (d *Device) Tick() []ReadResult {
	out := d.out[:0]
	n := 0
	for _, e := range d.pipe {
		if e.at <= d.cycle {
			out = append(out, e.res)
		} else {
			d.pipe[n] = e
			n++
		}
	}
	d.out = out
	d.pipe = d.pipe[:n]
	d.cycle++
	d.issued = false
	if d.timing.RefreshInterval > 0 && d.cycle >= d.nextRefresh {
		d.refreshDebt++
		d.nextRefresh += d.timing.RefreshInterval
	}
	return out
}
