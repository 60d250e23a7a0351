// Package bankctl implements the Bank Controller (BC) of Section 5.2.2:
// the per-bank engine that watches vector commands broadcast on the
// vector bus, determines the subvector it owns using the FirstHit /
// NextHit mathematics, schedules the SDRAM operations for that subvector
// through a window of Vector Contexts, and stages data between the SDRAM
// and the shared BC bus.
//
// The module structure mirrors the hardware blocks of Figure 6:
//
//   - FirstHit Predict (FHP): snoop logic evaluated in the broadcast
//     cycle; decides hit/no-hit and, for power-of-two strides, the
//     first-hit address (ObserveCommand). It has two paths. Strided
//     commands under word interleaving use the closed-form stride PLA.
//     Every other command (indexed commands, and strided commands under
//     a decoder without closed-form hit math) arrives pre-claimed: the
//     channel dispatcher decodes each element once when the command
//     claims its transaction ID, sorts the element indices by (channel,
//     bank), and hands each controller its own ascending list. The
//     timing is that of the snoop it replaces: indexed claims and
//     power-of-two strides resolve in the broadcast cycle, other strides
//     pay the FHC multiply-add.
//   - Request FIFO (RQF) + Register File (RF): one register-file slot
//     per bus transaction ID, written in place at the broadcast, and a
//     ring of the IDs waiting for a Vector Context, oldest first.
//   - FirstHit Calculate (FHC): the two-cycle multiply-add that resolves
//     first-hit addresses for non-power-of-two strides (stepFHC).
//   - Access Scheduler (SCHED) with four Vector Contexts (VCs) and their
//     Scheduling Policy Units: daisy-chained, oldest-first arbitration
//     for the single SDRAM command slot per cycle, row-open/precharge
//     promotion, the bus polarity rule of Section 5.2.4, and the
//     ManageRow auto-precharge heuristic (sched.go). Config.Policy is
//     the ablation table: FCFS in place of row-op promotion, and
//     closed-page, open-page or hot-row rules in place of ManageRow.
//   - Staging Units (SUs): per-transaction read-gather and write-scatter
//     line buffers wired to the transaction-complete lines (staging.go).
//
// Restimers — the small counters of Section 5.2.5 that gate operations on
// SDRAM timing — are realized by reading the device model's per-unit
// ready cycle (dramtech.Model.ReadyAt) plus the data-bus polarity timers
// kept here.
package bankctl

import (
	"fmt"

	"pva/internal/addr"
	"pva/internal/bus"
	"pva/internal/core"
	"pva/internal/dramtech"
	"pva/internal/engine"
	"pva/internal/fault"
	"pva/internal/memsys"
	"pva/internal/trace"
)

// AddrView is a bank controller's window onto a non-default address
// decoder: the device word index of an owned address, and the inverse
// used for store addressing. When a Config carries no view, the
// controller assumes plain word interleaving across Config.Banks units
// and uses the closed-form FirstHit/NextHit mathematics for strided
// commands; with a view every command arrives pre-claimed.
// addrmap.BankView implements this interface.
type AddrView interface {
	BankWord(a uint32) uint32
	Compose(bankWord uint32) uint32
}

// Config fixes one bank controller's parameters.
type Config struct {
	Bank     uint32          // this controller's external bank number
	Banks    uint32          // M, total external banks
	Geom     core.Geometry   // word-interleave hit math for M banks
	View     AddrView        // non-nil: address the device via this view; commands arrive pre-claimed
	SGeom    addr.SDRAMGeom  // device geometry
	Timing   dramtech.Timing // configured device timing; the device runs on Tech.Timing(Timing)
	Tech     dramtech.Spec   // device back end (zero value: plain SDRAM)
	VCWindow int             // number of Vector Contexts (prototype: 4)
	FHCDelay int             // FirstHit-Calculate latency in cycles (prototype: 2)
	Policy   Policy          // SPU and row policy (zero value: the paper's)
	Observer trace.Observer  // optional event sink (nil: tracing off)

	// Injector, when non-nil, is installed on the SDRAM device's read
	// path: transient bit flips run through the SEC-DED codec there.
	Injector *fault.Injector
}

// PaperConfig returns the prototype parameters of Section 5.1 for the
// given bank.
func PaperConfig(bank uint32) Config {
	return Config{
		Bank:     bank,
		Banks:    16,
		Geom:     core.MustGeometry(16),
		SGeom:    addr.MustSDRAMGeom(4, 512, 8192),
		Timing:   dramtech.PaperTiming(),
		VCWindow: 4,
		FHCDelay: 2,
	}
}

// request is one Register File entry: the slot of one transaction ID.
type request struct {
	op   memsys.Op
	v    core.Vector
	txn  int
	hit  core.Hit // first index, delta, count for this bank
	addr uint32   // global word address of the first owned element
	idxs []uint32 // owned element indices when pre-claimed (AddrView or indexed command); nil: closed form

	// cmdIdx is the command's explicit index list for indexed
	// (vector-indirect) requests: element i lives at v.Base + cmdIdx[i].
	// nil for base-stride requests.
	cmdIdx []uint32

	acc        bool // "address calculation complete"
	fhcCycles  int  // remaining FHC work when !acc
	enqueuedAt uint64
	held       bool // queued in the RQF or held by a vector context
}

// elemAddr returns the global word address of element i under either
// command kind: base + index for indexed requests, the base-stride
// arithmetic otherwise.
func (r *request) elemAddr(i uint32) uint32 {
	if r.cmdIdx != nil {
		return r.v.Base + r.cmdIdx[i]
	}
	return r.v.Addr(i)
}

// BC is one bank controller.
type BC struct {
	cfg   Config
	dev   *dramtech.Device
	model *dramtech.Model // dev's row-state machine, read by unit index
	board *bus.Board
	pla   *core.K1PLA

	// boardBank is this controller's line on the transaction-complete
	// board. It defaults to cfg.Bank; multi-channel front ends keep one
	// board per channel and renumber the lines 0..M-1 (SetBoardBank)
	// while cfg.Bank stays the controller's global interleave unit.
	boardBank uint32

	// The Register File holds one slot per transaction ID, written in
	// place at the broadcast; a vector context points at its slot. The
	// Request FIFO is a ring of the queued IDs: rqfHead is the oldest,
	// rqfLen how many wait.
	rf      [bus.MaxTransactions]request
	rqf     [bus.MaxTransactions]int
	rqfHead int
	rqfLen  int

	sched *scheduler
	su    *staging

	cycle uint64
	stats Stats
}

// Stats counts controller-level events (device-level counters live on
// the dramtech.Device).
type Stats struct {
	Requests        uint64 // vector commands with at least one hit here
	NoHitCommands   uint64 // broadcasts that missed this bank entirely
	FHPPow2         uint64 // first-hit addresses resolved in the broadcast cycle
	FHCCalcs        uint64 // first-hit addresses resolved by the multiply-add
	PolarityStalls  uint64 // cycles an access waited on data-bus turnaround
	SchedIdleCycles uint64 // cycles with work pending but nothing issuable
}

// New returns a bank controller driving a fresh device over the store.
func New(cfg Config, store *memsys.Store, board *bus.Board) *BC {
	if cfg.VCWindow <= 0 {
		fault.Invariantf("bankctl", "VCWindow must be positive")
	}
	dev := dramtech.NewDevice(cfg.SGeom, cfg.Timing, cfg.Tech, store, cfg.Bank, cfg.Banks)
	if cfg.View != nil {
		dev.SetCompose(cfg.View.Compose)
	}
	if cfg.Injector != nil {
		dev.SetInjector(cfg.Injector)
	}
	bc := &BC{
		cfg:       cfg,
		dev:       dev,
		model:     dev.Model(),
		board:     board,
		pla:       core.NewK1PLA(cfg.Geom),
		boardBank: cfg.Bank,
	}
	bc.sched = newScheduler(bc)
	bc.su = newStaging(cfg.Banks)
	return bc
}

// Reset returns the controller — request queue, scheduler window and
// row predictors, staging units, device — to its power-on state without
// reallocating any backing storage. Cached sessions call it on reuse;
// the board wiring installed at construction is untouched.
func (bc *BC) Reset() {
	bc.rf = [bus.MaxTransactions]request{}
	bc.rqfHead, bc.rqfLen = 0, 0
	bc.cycle = 0
	bc.stats = Stats{}
	bc.sched.reset()
	bc.su.reset()
	bc.dev.Reset()
}

// queued returns the Register File slot of the i-th oldest queued ID.
func (bc *BC) queued(i int) *request {
	return &bc.rf[bc.rqf[(bc.rqfHead+i)%bus.MaxTransactions]]
}

// SetBoardBank renumbers this controller's transaction-complete line
// (default: cfg.Bank). Multi-channel front ends use per-channel boards
// with lines 0..M-1 regardless of the controller's global unit number.
func (bc *BC) SetBoardBank(b uint32) { bc.boardBank = b }

// Device exposes the memory device (stats, inspection).
func (bc *BC) Device() *dramtech.Device { return bc.dev }

// Stats returns a copy of the controller counters.
func (bc *BC) Stats() Stats { return bc.stats }

// CycleNow reports the controller's local clock. Under lazy ticking an
// idle controller falls behind the global cycle until a timer of its own
// or a broadcast it owns elements of wakes it.
func (bc *BC) CycleNow() uint64 { return bc.cycle }

// Busy reports whether the controller still has queued or in-flight work.
func (bc *BC) Busy() bool {
	return bc.rqfLen > 0 || bc.sched.busy()
}

// ObserveCommand is the FirstHit Predict block, called in the cycle now
// a VEC_READ or VEC_WRITE is broadcast. idx is an indexed command's
// offsets (element i lives at v.Base + idx[i]; nil for strided
// commands). owned selects the predictor: nil runs the stride PLA,
// which only strided commands under word interleaving may use;
// otherwise it is this bank's pre-claimed element list, ascending, and
// empty when the bank owns nothing. The controller keeps owned, read
// only, until txn is released.
//
// A bank owning nothing deasserts the transaction line at once and
// leaves its clock alone: it reports false and needs no tick. A bank
// that owns elements catches its clock up to now, writes the request
// into txn's register-file slot and reports true; the caller must tick
// it this cycle. The error reports a failed catch-up.
func (bc *BC) ObserveCommand(now uint64, op memsys.Op, v core.Vector, idx, owned []uint32, txn int) (bool, error) {
	if txn < 0 || txn >= bus.MaxTransactions {
		fault.Invariantf("bankctl", "bank %d: transaction ID %d outside [0, %d)", bc.cfg.Bank, txn, bus.MaxTransactions)
	}
	r := &bc.rf[txn]
	if r.held {
		// The front end reuses an ID only after every line of its last
		// transaction deasserted, which this bank does only once the
		// slot's vector context has issued its last element.
		fault.Invariantf("bankctl", "bank %d: register file slot %d still in use", bc.cfg.Bank, txn)
	}
	var hit core.Hit
	switch {
	case owned != nil:
		hit = core.Hit{First: core.NoHit, Delta: 1, Count: uint32(len(owned))}
		if len(owned) > 0 {
			hit.First = owned[0]
		}
	case idx != nil || bc.cfg.View != nil:
		fault.Invariantf("bankctl", "bank %d: command without closed-form hit math arrived unclaimed", bc.cfg.Bank)
	default:
		hit = bc.subVector(v)
	}
	if hit.Count == 0 {
		bc.stats.NoHitCommands++
		bc.board.Done(bc.boardBank, txn)
		return false, nil
	}
	if bc.cycle < now {
		if err := bc.AdvanceIdle(now - bc.cycle); err != nil {
			return false, err
		}
	}
	bc.stats.Requests++
	// The slot is written field by field: a composite literal assigned
	// through the pointer would be built aside and copied in.
	r.op, r.v, r.txn, r.hit = op, v, txn, hit
	r.idxs, r.cmdIdx = owned, idx
	r.addr, r.acc, r.fhcCycles = 0, false, 0
	r.enqueuedAt, r.held = bc.cycle, true
	switch {
	case idx != nil:
		// Indexed claim: the first owned address is known from the
		// broadcast offsets, no arithmetic left to do.
		r.addr = r.elemAddr(hit.First)
		r.acc = true
		bc.stats.FHPPow2++
	case pow2(v.Stride):
		// FHP fast path: first-hit address is base + (first << log2(S)),
		// a shift and add completed within the broadcast cycle.
		r.addr = v.Base + v.Stride*hit.First
		r.acc = true
		bc.stats.FHPPow2++
	default:
		r.fhcCycles = bc.cfg.FHCDelay
	}
	if op == memsys.Read {
		bc.su.openRead(txn, hit.Count)
	}
	bc.rqf[(bc.rqfHead+bc.rqfLen)%bus.MaxTransactions] = txn
	bc.rqfLen++
	return true, nil
}

// StageWriteData is the write Staging Unit's buffer fill: the front end
// delivers the dense line for txn, carried by the STAGE_WRITE data
// cycles, to each controller that took the VEC_WRITE broadcast
// (ObserveCommand reported true), before it ticks that cycle.
func (bc *BC) StageWriteData(txn int, line []uint32) {
	bc.su.putWrite(txn, line)
}

// CollectRead copies this bank's gathered words for txn into line (dense
// element order), returning how many words it contributed. Called by the
// front end during the STAGE_READ data burst.
func (bc *BC) CollectRead(txn int, line []uint32) int {
	return bc.su.collect(txn, line)
}

// Release frees all per-transaction staging state; the front end calls
// it when the bus transaction retires.
func (bc *BC) Release(txn int) { bc.su.release(txn) }

// Tick advances the controller (and its device) one cycle:
// FHC work, RQF-to-VC dispatch, scheduling, SDRAM command issue, and
// read-data collection. The returned error reports a timing or protocol
// violation — a simulator bug, not a runtime condition.
func (bc *BC) Tick() error {
	bc.stepFHC()
	bc.dispatch()
	handled, err := bc.stepRefresh()
	if err != nil {
		return err
	}
	if !handled {
		if err := bc.sched.step(bc.cycle); err != nil {
			return err
		}
	}
	for _, rr := range bc.dev.Tick() {
		if rr.Err != nil {
			// A poisoned word: every ECC replay came back dirty. Surface
			// the structured error; the front end fails the run cleanly.
			return rr.Err
		}
		txn := int(rr.Tag >> 32)
		idx := uint32(rr.Tag)
		if bc.su.putRead(txn, idx, rr.Data) {
			bc.board.Done(bc.boardBank, txn)
		}
	}
	bc.cycle++
	return nil
}

// NoEvent is returned by NextEventAt when the controller is fully idle
// and, absent a new broadcast, will never need another cycle.
const NoEvent = engine.NoEvent

// NextEventAt returns the earliest cycle at which this controller must
// execute a real Tick: the current cycle while any queued or in-flight
// work exists, the maturity cycle of pending read data, the next refresh
// obligation, or NoEvent when fully idle. The front end uses this to
// skip runs of provably no-op cycles; the returned cycle is a lower
// bound on the next state change, never an overestimate.
func (bc *BC) NextEventAt() uint64 {
	// Queued requests (FHC work, dispatch) and live vector contexts need
	// cycle-by-cycle attention: their next action depends on bank
	// restimers and arbitration that the per-cycle scheduler resolves.
	if bc.rqfLen > 0 || bc.sched.busy() {
		return bc.cycle
	}
	next := uint64(NoEvent)
	if at := bc.dev.NextDataAt(); at < next {
		next = at
	}
	if at := bc.dev.NextRefreshAt(); at < next {
		next = at
	}
	return next
}

// AdvanceIdle jumps the controller (and its device) forward by delta
// cycles the front end has proven to be no-ops: no queued work, no
// scheduling, no data maturing inside the span. Counters advance exactly
// as delta per-cycle Ticks would have advanced them.
func (bc *BC) AdvanceIdle(delta uint64) error {
	if delta == 0 {
		return nil
	}
	if bc.rqfLen > 0 || bc.sched.busy() {
		return fmt.Errorf("bankctl: bank %d AdvanceIdle with work queued", bc.cfg.Bank)
	}
	if err := bc.dev.AdvanceIdle(delta); err != nil {
		return fmt.Errorf("bankctl: bank %d: %w", bc.cfg.Bank, err)
	}
	bc.cycle += delta
	return nil
}

// stepRefresh services the device's refresh obligations (when the
// configuration enables them): it closes any open rows, then issues the
// AUTO REFRESH, taking the command slot for this cycle. The paper's
// evaluation ignores refresh; this path exists for configurations that
// model the 64 ms obligation.
func (bc *BC) stepRefresh() (bool, error) {
	if !bc.dev.RefreshDue() {
		return false, nil
	}
	allIdle := true
	for ib := uint32(0); ib < bc.cfg.SGeom.InternalBanks; ib++ {
		row, ready, open := bc.model.PrechargeTarget(ib, bc.cycle)
		if !open {
			continue
		}
		allIdle = false
		if ready {
			// The precharge names the row it is closing, so the device
			// never mistakes a refresh precharge for a row conflict.
			return true, bc.dev.Issue(dramtech.Request{Cmd: dramtech.Precharge, IBank: ib, Row: row})
		}
	}
	if !allIdle {
		return true, nil // waiting on a row transition; hold the slot
	}
	for ib := uint32(0); ib < bc.cfg.SGeom.InternalBanks; ib++ {
		if bc.cycle < bc.model.MaxReadyAt(ib) {
			return true, nil // precharge still completing
		}
	}
	return true, bc.dev.Issue(dramtech.Request{Cmd: dramtech.Refresh})
}

// stepFHC is the FirstHit Calculate block: it works on the oldest
// register-file entry whose address calculation is incomplete, spending
// FHCDelay cycles on the multiply-add, then writes the address back with
// the ACC flag set (the bypass path to the VC window is modeled by
// dispatch accepting entries the cycle ACC is set).
func (bc *BC) stepFHC() {
	for i := 0; i < bc.rqfLen; i++ {
		r := bc.queued(i)
		if r.acc {
			continue
		}
		r.fhcCycles--
		if r.fhcCycles <= 0 {
			r.addr = r.v.Base + r.v.Stride*r.hit.First // the multiply-add
			r.acc = true
			bc.stats.FHCCalcs++
		}
		return // one FHC, one entry per cycle (workptr)
	}
}

// dispatch moves the head of the Request FIFO into a free Vector Context
// — at most one per cycle, and only entries whose address calculation is
// complete and that were enqueued in an earlier cycle (the FHP itself
// takes the broadcast cycle). The context points at the entry's
// register-file slot, which stays held until the context completes.
func (bc *BC) dispatch() {
	if bc.rqfLen == 0 {
		return
	}
	head := bc.queued(0)
	if !head.acc || head.enqueuedAt >= bc.cycle {
		return
	}
	if !bc.sched.accept(head) {
		return
	}
	bc.rqfHead = (bc.rqfHead + 1) % bus.MaxTransactions
	bc.rqfLen--
}

// DebugString summarizes queue and scheduler state for deadlock
// diagnostics.
func (bc *BC) DebugString() string {
	if !bc.Busy() {
		return ""
	}
	s := fmt.Sprintf("bank %d: rqf=%d", bc.cfg.Bank, bc.rqfLen)
	for i := 0; i < bc.rqfLen; i++ {
		r := bc.queued(i)
		s += fmt.Sprintf(" [txn%d %v acc=%v first=%d n=%d]", r.txn, r.op, r.acc, r.hit.First, r.hit.Count)
	}
	for i, vc := range bc.sched.vcs {
		s += fmt.Sprintf(" vc%d{txn%d %v rem=%d addr=%d}", i, vc.r.txn, vc.r.op, vc.remaining, vc.addr)
	}
	s += fmt.Sprintf(" pol=%v", bc.sched.polarity)
	return s
}

// bankWord maps an owned global word address to the device word index:
// via the view when one is installed, else by stripping the interleave
// bits.
func (bc *BC) bankWord(a uint32) uint32 {
	if bc.cfg.View != nil {
		return bc.cfg.View.BankWord(a)
	}
	return a >> bc.cfg.Geom.Log2Banks()
}

// subVector evaluates the FirstHit predictor for this bank via the
// stride PLA.
func (bc *BC) subVector(v core.Vector) core.Hit {
	first := bc.pla.FirstHit(v, bc.cfg.Bank)
	if first == core.NoHit {
		return core.Hit{First: core.NoHit, Delta: bc.pla.NextHit(v.Stride)}
	}
	delta := bc.pla.NextHit(v.Stride)
	return core.Hit{
		First: first,
		Delta: delta,
		Count: (v.Length - first + delta - 1) / delta,
	}
}

func pow2(x uint32) bool { return x&(x-1) == 0 } // true for 0 and powers of two
