// The Access Scheduler (SCHED), Vector Contexts (VCs), Scheduling Policy
// Units (SPUs), and the ManageRow heuristic of Section 5.2.2.

package bankctl

import (
	"fmt"
	"slices"
	"strings"

	"pva/internal/addr"
	"pva/internal/dramtech"
	"pva/internal/fault"
	"pva/internal/memsys"
	"pva/internal/trace"
)

// SPU selects the Scheduling Policy Unit's arbitration. Section 5.2.2
// isolates the scheduling heuristics in SPU submodules "so we can
// experiment with various scheduling policies"; both variants share the
// daisy-chained legality checks (row state, timing, polarity rule) and
// the oldest-legal-first scan, and differ only in where row operations
// go.
type SPU uint8

const (
	// PaperSPU is the paper's heuristic: the oldest legal row operation
	// wins the datapath over ready accesses, opening rows as early as
	// possible; otherwise the oldest ready access goes.
	PaperSPU SPU = iota
	// FCFS never promotes row operations: the oldest ready access goes
	// first, and row work fills only cycles no access can use.
	FCFS
)

// RowPolicy selects the auto-precharge rule an access carries.
type RowPolicy uint8

const (
	// ManageRow is the paper's row-management algorithm (Section 5.2.2).
	ManageRow RowPolicy = iota
	// ClosedPage precharges after every access.
	ClosedPage
	// OpenPage never auto-precharges; rows close only by an explicit
	// precharge when a conflicting row is needed.
	OpenPage
	// HotRow is the Alpha 21174's adaptive predictor (Sections 2.4.1 and
	// 3.1): a 4-bit history of row hits per row-state unit indexes a
	// software-set precharge policy register.
	HotRow
)

// Policy is the bank controller's policy table: one SPU and one row
// policy. The zero value is the paper's design.
type Policy struct {
	SPU SPU
	Row RowPolicy
}

var (
	spuNames = [...]string{PaperSPU: "paper", FCFS: "fcfs"}
	rowNames = [...]string{ManageRow: "manage-row", ClosedPage: "closed-page", OpenPage: "open-page", HotRow: "hotrow"}
)

// ParsePolicy maps an SPU name and a row-policy name to a Policy; an
// empty name selects the paper's choice.
func ParsePolicy(spu, row string) (Policy, error) {
	s, err := lookupName("scheduling policy", spu, spuNames[:])
	if err != nil {
		return Policy{}, err
	}
	r, err := lookupName("row policy", row, rowNames[:])
	if err != nil {
		return Policy{}, err
	}
	return Policy{SPU: SPU(s), Row: RowPolicy(r)}, nil
}

func lookupName(kind, name string, names []string) (int, error) {
	if name == "" {
		return 0, nil
	}
	if i := slices.Index(names, name); i >= 0 {
		return i, nil
	}
	return 0, fmt.Errorf("bankctl: unknown %s %q (valid: %s)", kind, name, strings.Join(names, ", "))
}

// rowDecision carries the wired-OR predictor state the row policy
// consults when deciding the auto-precharge rider for an access.
type rowDecision struct {
	requestComplete bool // this access is the VC's last element
	nextSelfSameRow bool // the VC's next element hits this same row
	moreHitPredict  bool // some VC has a further element hitting this open row
	closePredict    bool // some VC is waiting for this internal bank with another row
	autoPredict     bool // the one-bit autoprecharge predictor for this unit
}

// hotRowRegister is the 21174's precharge policy register under the
// majority setting: bit h is set (leave the row open) when the 4-bit
// history h holds at least two hits.
const hotRowRegister uint16 = 0xfee8

// autoPrecharge reports whether an access under row policy p carries
// the auto-precharge rider. h is the access's row-state unit's history,
// which the hot-row predictor trains.
func (p RowPolicy) autoPrecharge(d rowDecision, h *rowHistory) bool {
	switch p {
	case ClosedPage:
		return true
	case OpenPage:
		return false
	case HotRow:
		// A hit is approximated by the scheduler's lookahead (the next
		// access to the unit hitting the same row): the outcome the
		// 21174's history would record one access later.
		h.hot = h.hot << 1 & 0xf
		if d.nextSelfSameRow || d.moreHitPredict {
			h.hot |= 1
		}
		return hotRowRegister>>h.hot&1 == 0
	}
	// ManageRow's decision tree: a finished request closes the row only
	// when nobody else hits it and either another row is wanted or the
	// predictor says so; mid-request, the row stays open while this VC
	// or another one still hits it.
	if d.requestComplete {
		return !d.moreHitPredict && (d.closePredict || d.autoPredict)
	}
	return !d.nextSelfSameRow && !d.moreHitPredict
}

// vcontext is one Vector Context: a vector request whose SDRAM
// operations are in flight. The address sequence is generated by the
// shift-and-add of Section 4.2 step 7: addr += S << (m-s).
type vcontext struct {
	r         *request   // the request's register-file slot, held until the context completes
	addr      uint32     // current element's global word address
	coord     addr.Coord // addr's device coordinates, cached (addr changes only on advance)
	unit      uint32     // coord's row-state unit (a flat dramtech UnitIndex), cached with coord
	next      addr.Coord // the NEXT element's coordinates; valid only while remaining > 1
	elem      uint32     // current element's vector index
	pos       int        // position in r.idxs for pre-claimed requests
	remaining uint32
	issuedAny bool // has its "very first operation" been issued?
}

// rowHistory is one row-state unit's predictor state.
type rowHistory struct {
	lastOpened int64 // last row opened in the unit (-1: none)
	predict    bool  // the one-bit autoprecharge predictor
	hot        uint8 // the hot-row predictor's last four outcomes, bit 0 most recent (1 = hit)
}

// scheduler is SCHED: the VC window plus the shared-datapath arbitration.
//
// The VC window is a value slice — the contexts the daisy chain walks
// every cycle sit in one contiguous block — and the per-cycle desire
// list is allocated once at construction and reused, so a busy
// controller's steady-state step touches no allocator at all. Each VC
// caches its element's row-state unit whenever its coordinates change,
// and the scheduler reads the device model by that index: a cycle folds
// no row into its unit. The wired-OR predictor lines are evaluated on
// demand, for the one unit a decision needs (hitPredict, rowLines).
type scheduler struct {
	bc    *BC
	model *dramtech.Model

	vcs []vcontext // age order, index 0 oldest; contiguous, cap = VCWindow

	polarity  memsys.Op // current SDRAM data-bus direction
	lastRead  int64     // cycle of the most recent READ command
	lastWrite int64     // cycle of the most recent WRITE command
	readTurn  int64     // least READ-to-WRITE gap on the device's pins (Timing.ReadToWrite)

	// The row predictors (the one-bit autoprecharge predictor and the
	// hot-row history) are kept per row-state unit — the internal bank
	// for plain SDRAM, the subarray/partition for SALP/PCM — indexed by
	// the model's UnitIndex. With one unit per bank the index is exactly
	// the internal bank number, reproducing the paper's per-bank
	// predictors.
	hist []rowHistory

	// groupEnd bounds this cycle's issue group: the run of oldest VCs
	// sharing the oldest VC's polarity.
	groupEnd int

	needs []dramtech.Need // what each VC needs this cycle, parallel to vcs; reused across steps
}

func newScheduler(bc *BC) *scheduler {
	w := bc.cfg.VCWindow
	s := &scheduler{
		bc:       bc,
		model:    bc.model,
		readTurn: int64(bc.dev.Timing().ReadToWrite()),
		hist:     make([]rowHistory, bc.model.Units()),
		vcs:      make([]vcontext, 0, w),
		needs:    make([]dramtech.Need, w),
	}
	s.reset()
	return s
}

// reset returns the scheduler to its initial state — window empty, bus
// polarity at the power-on read direction, predictors cleared — keeping
// every backing array for the next session.
func (s *scheduler) reset() {
	s.vcs = s.vcs[:0]
	s.polarity = memsys.Read
	s.lastRead = -1 << 40
	s.lastWrite = -1 << 40
	for i := range s.hist {
		s.hist[i] = rowHistory{lastOpened: -1}
	}
}

func (s *scheduler) busy() bool { return len(s.vcs) > 0 }

// accept takes a dispatched request into a free VC; reports false when
// the window is full. The window's backing array is allocated once
// (capacity VCWindow), so accepting never grows it.
func (s *scheduler) accept(r *request) bool {
	if len(s.vcs) >= s.bc.cfg.VCWindow {
		return false
	}
	s.vcs = append(s.vcs, vcontext{r: r, elem: r.hit.First, remaining: r.hit.Count})
	vc := &s.vcs[len(s.vcs)-1]
	s.moveTo(vc, r.addr, s.coordOf(r.addr))
	if vc.remaining > 1 {
		vc.next = s.coordOf(s.nextAddrOf(vc))
	}
	return true
}

// coordOf decomposes a global word address into device coordinates.
func (s *scheduler) coordOf(a uint32) addr.Coord {
	return s.bc.cfg.SGeom.Decompose(s.bc.bankWord(a))
}

// moveTo points the VC at global word address a, whose device
// coordinates are c, and with them at c's row-state unit. Every change
// of a VC's current element goes through here, so the cached unit never
// goes stale.
func (s *scheduler) moveTo(vc *vcontext, a uint32, c addr.Coord) {
	vc.addr = a
	vc.coord = c
	vc.unit = s.model.UnitIndex(c.IBank, c.Row)
}

// Wired-OR predictor lines (Section 5.2.2), evaluated on demand for one
// unit from the VC window and the model's open row. Only issue-group VCs
// drive bank_hit_predict and bank_morehit_predict: a VC stuck behind the
// polarity boundary cannot issue, so letting it pin a row open would
// deadlock the older contexts that need the row closed. Every VC drives
// bank_close_predict.

// hitPredict is unit u's bank_hit_predict line, the precharge veto: an
// issue-group VC's current element hits the row open in u.
func (s *scheduler) hitPredict(u uint32) bool {
	row, open := s.model.OpenRow(u)
	if !open {
		return false
	}
	for i := 0; i < s.groupEnd; i++ {
		if vc := &s.vcs[i]; vc.unit == u && vc.coord.Row == row {
			return true
		}
	}
	return false
}

// rowLines returns the bank_morehit_predict line of unit u, which holds
// row open (an issue-group VC hitting row has a next element in that
// same row), and its bank_close_predict line (some VC waits on u for
// another row).
func (s *scheduler) rowLines(u, row uint32) (moreHit, closePredict bool) {
	for i := range s.vcs {
		vc := &s.vcs[i]
		switch {
		case vc.unit != u:
		case vc.coord.Row != row:
			closePredict = true
		case i < s.groupEnd && vc.remaining > 1 && vc.next.IBank == vc.coord.IBank && vc.next.Row == row:
			moreHit = true
		}
	}
	return moreHit, closePredict
}

// rowOpOK reports whether a VC's need is an issuable row operation:
// an activate, or a precharge bank_hit_predict does not veto.
func (s *scheduler) rowOpOK(i int, d dramtech.Need) bool {
	return d == dramtech.NeedActivate || (d == dramtech.NeedPrecharge && !s.hitPredict(s.vcs[i].unit))
}

// step arbitrates the single device command slot for this cycle. The
// need list is the scheduler's own scratch, refilled in place each
// cycle from the device model.
func (s *scheduler) step(cycle uint64) error {
	if len(s.vcs) == 0 {
		return nil
	}
	needs := s.needs[:len(s.vcs)]
	for i := range s.vcs {
		vc := &s.vcs[i]
		needs[i] = s.model.Need(vc.unit, vc.coord.Row, cycle)
	}

	// The issue group: the run of oldest VCs sharing the oldest VC's
	// polarity. The next differing-polarity VC is the reversal boundary
	// of Section 5.2.4, which nothing may cross.
	groupOp := s.vcs[0].r.op
	s.groupEnd = len(s.vcs)
	for i := range s.vcs {
		if s.vcs[i].r.op != groupOp {
			s.groupEnd = i
			break
		}
	}

	// The oldest issuable row operation: an activate, or a precharge
	// bank_hit_predict does not veto. The paper's SPU lets it win the
	// datapath outright.
	row := -1
	for i, d := range needs {
		if s.rowOpOK(i, d) {
			row = i
			break
		}
	}
	if row >= 0 && s.bc.cfg.Policy.SPU != FCFS {
		return s.issueRowOp(row, needs[row], cycle)
	}

	// The oldest ready access in the issue group. When the group's
	// polarity differs from the bus, the first issue pays the data-bus
	// turnaround restimer and flips the bus.
	stalled := false
	for i := 0; i < s.groupEnd; i++ {
		if needs[i] != dramtech.NeedAccess {
			continue
		}
		if groupOp == s.polarity || s.reversalOK(groupOp, cycle) {
			return s.issueAccess(i, cycle)
		}
		s.bc.stats.PolarityStalls++
		stalled = true
		break
	}
	// Under FCFS, row work fills a cycle no access could use.
	if row >= 0 {
		return s.issueRowOp(row, needs[row], cycle)
	}
	if !stalled {
		s.bc.stats.SchedIdleCycles++
	}
	return nil
}

// reversalOK is the data-bus turnaround restimer: a WRITE may follow the
// last READ only after the read's data has left the pins plus one
// turnaround cycle; a READ after a WRITE needs the write data cycle plus
// one turnaround cycle.
func (s *scheduler) reversalOK(to memsys.Op, cycle uint64) bool {
	c := int64(cycle)
	if to == memsys.Write {
		return c >= s.lastRead+s.readTurn
	}
	return c >= s.lastWrite+2
}

// stepOf is the VC's address increment: stride << (m-s), i.e.
// stride * delta.
func (s *scheduler) stepOf(vc *vcontext) uint32 {
	return vc.r.v.Stride * vc.r.hit.Delta
}

// nextAddrOf is the address of the VC's next element (valid only while
// remaining > 1): the shift-and-add for closed-form requests, the next
// pre-claimed index otherwise.
func (s *scheduler) nextAddrOf(vc *vcontext) uint32 {
	if vc.r.idxs != nil {
		return vc.r.elemAddr(vc.r.idxs[vc.pos+1])
	}
	return vc.addr + s.stepOf(vc)
}

// advance moves the VC to its next element, whose coordinates the
// lookahead already holds, and decodes the element after it only if
// there is one (remaining is still the pre-issue count here). Past the
// last element nothing moves.
func (s *scheduler) advance(vc *vcontext) {
	if vc.remaining == 1 {
		return
	}
	a := s.nextAddrOf(vc)
	if vc.r.idxs != nil {
		vc.pos++
		vc.elem = vc.r.idxs[vc.pos]
	} else {
		vc.elem += vc.r.hit.Delta
	}
	s.moveTo(vc, a, vc.next)
	if vc.remaining > 2 {
		vc.next = s.coordOf(s.nextAddrOf(vc))
	}
}

func (s *scheduler) issueRowOp(i int, d dramtech.Need, cycle uint64) error {
	vc := &s.vcs[i]
	c := vc.coord
	s.noteFirstOp(vc)
	var req dramtech.Request
	var kind trace.Kind
	switch d {
	case dramtech.NeedActivate:
		req = dramtech.Request{Cmd: dramtech.Activate, IBank: c.IBank, Row: c.Row}
		s.hist[vc.unit].lastOpened = int64(c.Row)
		kind = trace.Activate
	case dramtech.NeedPrecharge:
		// The precharge carries the row the VC wants next; the device
		// routes it to that row's unit and counts the evicted row as a
		// row conflict.
		req = dramtech.Request{Cmd: dramtech.Precharge, IBank: c.IBank, Row: c.Row}
		kind = trace.Precharge
	default:
		return fmt.Errorf("bankctl: bad row op %d", d)
	}
	if err := s.bc.dev.Issue(req); err != nil {
		return err
	}
	if obs := s.bc.cfg.Observer; obs != nil {
		obs(trace.Event{
			Cycle: cycle, Bank: int(s.bc.cfg.Bank), Kind: kind,
			Txn: vc.r.txn, IBank: c.IBank, Row: c.Row,
		})
	}
	return nil
}

func (s *scheduler) issueAccess(i int, cycle uint64) error {
	vc := &s.vcs[i]
	c := vc.coord
	s.noteFirstOp(vc)
	// The row policy decides the auto-precharge rider only for a unit
	// that holds a row open: always so on a device with rows, never on
	// a rowless one.
	auto := false
	if row, open := s.model.OpenRow(vc.unit); open {
		nextSelfSameRow := false
		if vc.remaining > 1 {
			nextSelfSameRow = vc.next.IBank == c.IBank && vc.next.Row == c.Row
		}
		moreHit, closePredict := s.rowLines(vc.unit, row)
		h := &s.hist[vc.unit]
		auto = s.bc.cfg.Policy.Row.autoPrecharge(rowDecision{
			requestComplete: vc.remaining == 1,
			nextSelfSameRow: nextSelfSameRow,
			moreHitPredict:  moreHit,
			closePredict:    closePredict,
			autoPredict:     h.predict,
		}, h)
	}
	req := dramtech.Request{
		IBank: c.IBank,
		Row:   c.Row,
		Col:   c.Col,
		Auto:  auto,
		Tag:   uint64(vc.r.txn)<<32 | uint64(vc.elem),
	}
	if vc.r.op == memsys.Read {
		req.Cmd = dramtech.Read
		s.lastRead = int64(cycle)
	} else {
		req.Cmd = dramtech.Write
		var ok bool
		req.Data, ok = s.bc.su.takeWrite(vc.r.txn, vc.elem)
		if !ok {
			return fmt.Errorf("bankctl: bank %d write txn %d elem %d has no staged data",
				s.bc.cfg.Bank, vc.r.txn, vc.elem)
		}
		s.lastWrite = int64(cycle)
	}
	if err := s.bc.dev.Issue(req); err != nil {
		return err
	}
	if obs := s.bc.cfg.Observer; obs != nil {
		kind := trace.ReadCmd
		if vc.r.op == memsys.Write {
			kind = trace.WriteCmd
		}
		obs(trace.Event{
			Cycle: cycle, Bank: int(s.bc.cfg.Bank), Kind: kind,
			Txn: vc.r.txn, IBank: c.IBank, Row: c.Row,
			Col: c.Col, Auto: auto, Elem: vc.elem,
		})
	}
	s.polarity = vc.r.op
	s.advance(vc)
	vc.remaining--
	if vc.remaining == 0 {
		if vc.r.op == memsys.Write {
			// A scattered write is serviced once its last word is
			// committed to the SDRAM.
			s.bc.board.Done(s.bc.boardBank, vc.r.txn)
		}
		s.remove(i)
	}
	return nil
}

// noteFirstOp maintains the one-bit autoprecharge predictor: on the very
// first operation of a new vector request, the predictor for the target
// internal bank records whether the last row opened there matches the
// request's first row (Section 5.2.2, Row Management Algorithm).
func (s *scheduler) noteFirstOp(vc *vcontext) {
	if vc.issuedAny {
		return
	}
	vc.issuedAny = true
	h := &s.hist[vc.unit]
	h.predict = h.lastOpened == int64(vc.coord.Row)
}

// remove deletes the completed VC at window position i and frees its
// register-file slot; younger contexts "shift right" into the freed
// window position, preserving age order. The window's backing array is
// kept.
func (s *scheduler) remove(i int) {
	if i < 0 || i >= len(s.vcs) {
		fault.Invariantf("bankctl", "removing unknown vector context %d", i)
	}
	s.vcs[i].r.held = false
	copy(s.vcs[i:], s.vcs[i+1:])
	s.vcs = s.vcs[:len(s.vcs)-1]
}
