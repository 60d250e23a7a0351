// Package pvaunit assembles the complete Parallel Vector Access memory
// system of Figure 1: a memory-controller front end, one split-
// transaction vector bus per memory channel, and one bank controller per
// SDRAM bank behind each bus.
//
// The front end models the Vector Command Unit driven by an infinitely
// fast CPU (the Section 6.2 methodology): it issues each vector command
// as soon as (i) its data dependences have completed, (ii) no earlier
// un-broadcast command conflicts with it, (iii) a transaction ID is free
// (eight outstanding), and (iv) the target channel's bus is free. The bus
// protocol follows Section 5.2.6 exactly:
//
//	read:  VEC_READ broadcast (1 cycle) ... banks gather ... transaction-
//	       complete line deasserts ... STAGE_READ (1 cycle) + 16 data
//	       cycles during which the staging units drive the line back.
//	write: STAGE_WRITE (1 cycle) + 16 data cycles delivering the dense
//	       line to every staging unit, then the VEC_WRITE broadcast
//	       (1 cycle); the line deasserts when all banks have committed.
//
// Ownership changes between the controller and the bank controllers cost
// one bus turnaround cycle; the 128-bit BC bus trick (alternate 64-bit
// halves) makes BC-to-BC handoffs inside a burst free, which is why a
// whole 128-byte line stages in exactly 16 data cycles.
//
// Multi-channel operation generalizes the paper's single-channel
// prototype: the channel dispatcher splits every broadcast vector into
// per-channel subvectors (the FirstHit/NextHit closed forms applied at
// channel granularity where the decoder allows it) and runs the full bus
// protocol independently per channel — each channel stages only its own
// elements, so a C-channel system moves a line in 1/C of the data
// cycles. One global pool of eight transaction IDs spans all channels,
// mirrored onto each channel's transaction-complete board; a command
// retires when every channel holding elements has deasserted its line.
// With Channels=1 and the default word-interleave decoder, every loop
// below collapses to the single-channel prototype, cycle for cycle.
//
// Each channel is one record (channel.go): its board, its bus, its bank
// controllers with their cached wakes, and its dispatch state. The
// dispatcher is event-driven, as the bus is: each channel holds its one
// outstanding bus tenure (a broadcast, or the end of a STAGE_READ burst)
// with the cycle it is due, ticket-ordered lists of the shares waiting
// for its bus and of the reads gathered but not yet staged, and its
// serial-fallback queue; each board reports which transactions' lines
// settled since the last step. A step therefore
// touches only the channels and transactions with an event due, and
// NextWake reads each channel once. Within a cycle the order is fixed:
// schedule every channel, deliver the broadcasts landing this cycle in
// ticket order, then retire in ticket order. A broadcast under
// closed-form hit math reaches every live bank, each controller's
// FirstHit predictor deciding; a pre-claimed one opens its channel's
// line only for the live banks its claim list names and is delivered
// to those alone, and a retiring command releases staging only in the
// banks that took it.
//
// The session's cycle loop (Session.step in session.go) runs the whole
// machine on one clock: the watchdog and MaxCycles backstops, the front
// end's Step, each due channel's bank controllers (channel.tick, which
// ticks only the controllers whose wake is due), and the idle skip to
// the next event. The front end is stepped lazily: the loop caches its
// NextWake after each Step and steps it again only once that cycle
// arrives or an outside event pokes it (Poked). Commands enter through
// a Session — Issue/Poll/Wait/Drain — and the batch Run(Trace) below is
// a thin wrapper (issue everything at cycle zero, drain) that is
// bit-identical to the historical batch engine.
package pvaunit

import (
	"fmt"
	"math/bits"
	"slices"

	"pva/internal/addr"
	"pva/internal/addrmap"
	"pva/internal/bankctl"
	"pva/internal/bus"
	"pva/internal/core"
	"pva/internal/dramtech"
	"pva/internal/fault"
	"pva/internal/memsys"
	"pva/internal/trace"
)

// Config describes a PVA memory system.
type Config struct {
	Banks     uint32          // M, banks per channel, power of two (prototype: 16)
	Channels  uint32          // memory channels, power of two (prototype: 1); 0 = 1
	LineWords uint32          // words per cache line / max vector length (32)
	SGeom     addr.SDRAMGeom  // per-bank device geometry
	Timing    dramtech.Timing // configured device timing; Tech.Timing decides what the devices run on
	Tech      dramtech.Spec   // device back end (zero value: plain SDRAM)
	VCWindow  int             // vector contexts per bank controller (4)
	Policy    bankctl.Policy  // SPU and row policy (zero value: the paper's)
	Observer  trace.Observer  // optional event sink (nil: tracing off)
	MaxCycles uint64          // deadlock guard; 0 = default

	// Decoder is the address-decode function mapping word addresses to
	// (channel, bank, bank word). nil selects word interleaving across
	// Channels x Banks, the paper's organization. A non-nil decoder must
	// agree with Channels and Banks.
	Decoder addrmap.Decoder

	// DisableIdleSkip forces the strict tick-every-cycle loop. By default
	// the session advances the clock directly to the next event cycle
	// whenever every bank controller and bus timer is provably idle;
	// cycle counts are bit-identical either way (the skip only elides
	// cycles in which no component changes state).
	DisableIdleSkip bool

	// Fault describes the run's fault injection (fault.Plan zero value:
	// no faults, zero cost, bit-identical to a faultless build).
	Fault fault.Plan

	// WatchdogCycles arms the forward-progress watchdog: when the front
	// end observes no protocol progress (admission, issue, broadcast,
	// gather, collect, fallback completion, retire) for this many
	// consecutive cycles, the run returns a *fault.DeadlockError carrying
	// a diagnostic dump instead of spinning. It must exceed the longest
	// legitimate quiet period (a full-line SDRAM gather plus retry
	// backoff); 0 disables the watchdog and leaves only the MaxCycles
	// backstop.
	WatchdogCycles uint64
}

// PaperConfig returns the Section 5.1 prototype: one channel of 16
// word-interleaved SDRAM banks, 128-byte lines, four internal banks per
// device, two-cycle RAS/CAS/precharge.
func PaperConfig() Config {
	return Config{
		Banks:     16,
		Channels:  1,
		LineWords: 32,
		SGeom:     addr.MustSDRAMGeom(4, 512, 8192),
		Timing:    dramtech.PaperTiming(),
		VCWindow:  4,
	}
}

// SRAMConfig returns the idealized PVA-SRAM comparison system of Section
// 6.1: the same parallel access scheme over single-cycle static memory,
// the rowless SRAM back end, which runs on the SRAM preset's timing.
func SRAMConfig() Config {
	c := PaperConfig()
	c.Tech = dramtech.Spec{Backend: dramtech.BackendSRAM}
	return c
}

// ApplyTech resolves a user-facing technology selection onto cfg: the
// executable Spec replaces cfg.Tech, and with it the timing the devices
// run on (dramtech.Spec.Timing). tech "" or "sdram" with <=1 subarrays
// and partitions selects the zero Spec, so the zero-value selection is
// provably the paper's device.
func ApplyTech(cfg *Config, tech string, subarrays, partitions uint32) error {
	spec, err := dramtech.SpecFor(tech, subarrays, partitions)
	if err != nil {
		return err
	}
	cfg.Tech = spec
	return nil
}

// System is a PVA memory system.
type System struct {
	cfg   Config
	store *memsys.Store

	// ses caches the session hardware: Open builds it once and later
	// Opens rewind it in place, which is what makes repeated Runs on one
	// System allocation-free in steady state.
	ses *Session
}

// New returns a PVA system with a cold (Fill-pattern) store.
func New(cfg Config) (*System, error) {
	if cfg.Banks == 0 || cfg.Banks&(cfg.Banks-1) != 0 {
		return nil, fmt.Errorf("pvaunit: bank count %d not a power of two", cfg.Banks)
	}
	if cfg.LineWords == 0 {
		return nil, fmt.Errorf("pvaunit: line words must be positive")
	}
	if cfg.Decoder != nil {
		if cfg.Channels != 0 && cfg.Channels != cfg.Decoder.Channels() {
			return nil, fmt.Errorf("pvaunit: Channels=%d but decoder %q has %d",
				cfg.Channels, cfg.Decoder.Name(), cfg.Decoder.Channels())
		}
		if cfg.Decoder.Banks() != cfg.Banks {
			return nil, fmt.Errorf("pvaunit: Banks=%d but decoder %q has %d",
				cfg.Banks, cfg.Decoder.Name(), cfg.Decoder.Banks())
		}
		cfg.Channels = cfg.Decoder.Channels()
	} else {
		if cfg.Channels == 0 {
			cfg.Channels = 1
		}
		dec, err := addrmap.NewWordInterleave(cfg.Channels, cfg.Banks)
		if err != nil {
			return nil, fmt.Errorf("pvaunit: %w", err)
		}
		cfg.Decoder = dec
	}
	if err := cfg.Fault.Validate(cfg.Channels, cfg.Banks); err != nil {
		return nil, fmt.Errorf("pvaunit: %w", err)
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 50_000_000
	}
	if cfg.VCWindow == 0 {
		cfg.VCWindow = 4
	}
	if err := ValidateLimits(cfg.VCWindow, cfg.Tech.Timing(cfg.Timing)); err != nil {
		return nil, fmt.Errorf("pvaunit: %w", err)
	}
	return &System{cfg: cfg, store: memsys.NewStore()}, nil
}

// ValidateLimits rejects the bank-controller sizes and refresh timing
// no controller can run, naming the offending field. It is the one
// check behind both New and pva.Config.Validate.
//
//   - VCWindow below 1: the scheduler needs a vector context.
//   - RefreshInterval in (0, TRFC+TRP+TRCD+VCWindow]: after each
//     refresh, closing rows (TRP) and the refresh itself (TRFC), the
//     oldest vector context must still open its row (TRCD) and access
//     it while each younger context's row activate, promoted ahead of
//     accesses, takes a command slot. Shorter intervals close every
//     row before any access and the run never ends. Probes over TRCD
//     and TRP from 1 to 6, TRFC from 1 to 10, VCWindow from 1 to 8 and
//     2 to 8 internal banks, on all eleven kernels at strides 1 and 19,
//     found no stuck interval above this floor.
func ValidateLimits(vcWindow int, t dramtech.Timing) error {
	if vcWindow < 1 {
		return fmt.Errorf("VCWindow=%d: a bank controller needs at least one vector context", vcWindow)
	}
	if t.RefreshInterval > 0 {
		if floor := t.TRFC + t.TRP + t.TRCD + uint64(vcWindow); t.RefreshInterval <= floor {
			return fmt.Errorf("RefreshInterval=%d leaves no access between refreshes: it must exceed TRFC+TRP+TRCD+VCWindow=%d", t.RefreshInterval, floor)
		}
	}
	return nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements memsys.System.
func (s *System) Name() string {
	if s.cfg.Tech.Backend == dramtech.BackendSRAM {
		return "pva-sram"
	}
	return "pva-sdram"
}

// Peek implements memsys.System.
func (s *System) Peek(a uint32) uint32 { return s.store.Read(a) }

// DeviceStats returns every bank controller's device counters in flat
// channel*Banks+bank order, for the current session's hardware — nil
// before the first Open/Run. The counters are the last run's alone:
// every Open rewinds the devices.
func (s *System) DeviceStats() []dramtech.Stats {
	if s.ses == nil {
		return nil
	}
	out := make([]dramtech.Stats, 0, int(s.cfg.Channels)*int(s.cfg.Banks))
	for _, q := range s.ses.fe.chans {
		for _, bc := range q.bcs {
			out = append(out, bc.Device().Stats())
		}
	}
	return out
}

// Snapshot is a copy-on-write checkpoint of a System: its configuration
// plus an immutable image of the memory contents at capture time. A
// Snapshot is safe to share across goroutines; any number of Systems
// can be cloned from it (each with its own session hardware and its own
// copy-on-write view of the image, never aliasing another's mutable
// state). It implements memsys.Checkpoint.
type Snapshot struct {
	cfg Config
	img *memsys.Image
}

// Snapshot implements memsys.Snapshotter: capture the system's current
// memory image and configuration. Call it between runs, never while a
// session is pumping. The decoder is shared by reference (it is
// stateless by contract); every clone builds its own bank controllers,
// so no predictor state is shared.
func (s *System) Snapshot() memsys.Checkpoint { return s.snapshot() }

func (s *System) snapshot() *Snapshot {
	return &Snapshot{cfg: s.cfg, img: s.store.Snapshot()}
}

// Clone returns a fresh System warm-started from the checkpoint: same
// configuration, memory restored to the captured image at copy-on-write
// cost (one map header now; pages copy only when first written).
func (sn *Snapshot) Clone() *System {
	return &System{cfg: sn.cfg, store: memsys.NewStoreFrom(sn.img)}
}

// NewSystem implements memsys.Checkpoint.
func (sn *Snapshot) NewSystem() (memsys.System, error) { return sn.Clone(), nil }

// Clone returns an independent copy of the system frozen at its current
// memory state. Equivalent to Snapshot followed by Clone.
func (s *System) Clone() *System { return s.snapshot().Clone() }

// Restore implements memsys.Snapshotter: rewind this system's memory to
// a checkpoint previously taken from it (or from one of its clones) in
// O(1), discarding everything written since. The cached session
// hardware is kept — the next Open rewinds it in place as usual — so a
// restore-then-run cycle stays allocation-free in steady state.
func (s *System) Restore(cp memsys.Checkpoint) error {
	sn, ok := cp.(*Snapshot)
	if !ok {
		return fmt.Errorf("pvaunit: checkpoint %T is not a pvaunit snapshot", cp)
	}
	s.store.Restore(sn.img)
	return nil
}

// MemoryImage returns the raw memory image behind Snapshot, for
// serialization via internal/ckptio.
func (s *System) MemoryImage() *memsys.Image { return s.store.Snapshot() }

// chanState tracks one command's progress on one memory channel: its
// share. Which channel list holds the share (waiting for the bus, its
// tenure outstanding, gathered and waiting to stage, queued on the
// fallback) is the channel's state; see channel.
type chanState struct {
	count          uint32 // elements this channel owns; 0: no share here
	broadcastDone  bool   // this channel's BCs observed the VEC_* command
	took           uint64 // banks that took the broadcast (bit b: bank b)
	gathered       bool   // read: this channel's transaction-complete line deasserted
	stagingStarted bool   // read: STAGE_READ reserved on this channel
	stageReadEnd   uint64
	collected      bool // read: the staged line was collected from the live banks
	done           bool // this channel's share of the command has retired

	// Retry-with-backoff state for NACKed broadcasts.
	attempts int    // transmissions NACKed so far
	retryAt  uint64 // earliest cycle the next transmission may reserve the bus

	// Serial fallback state for elements owned by offline bank
	// controllers (degraded mode).
	fbIdxs   []uint32 // element indices re-routed through the fallback engine
	fbDoneAt uint64   // cycle the fallback finishes this command's share
	fbDone   bool     // fallback complete (vacuously true when fbIdxs is empty)
}

// live returns the element count serviced by this channel's live bank
// controllers (the rest re-route through the serial fallback).
func (cs *chanState) live() uint32 { return cs.count - uint32(len(cs.fbIdxs)) }

// cmdState tracks one accepted command (one ticket) through the bus
// protocol.
type cmdState struct {
	txn         int
	issued      bool // transaction ID claimed (on every channel's board)
	completed   bool
	open        int    // channel shares not yet done
	acceptedAt  uint64 // cycle the command entered the session
	issuedAt    uint64 // cycle the transaction ID was claimed
	completedAt uint64
	ch          []chanState // per channel

	// lo and hi bound the command's word addresses, computed once at
	// admission: the conflict guards intersect these ranges instead of
	// re-deriving them per scan. For base-stride commands the bounds
	// reproduce the historical overlaps() arithmetic exactly (no modular
	// wrap); for indexed commands they are the min/max of the resolved
	// element addresses.
	lo, hi uint64
}

// Run implements memsys.System: a thin batch wrapper over a streaming
// Session — every command is issued in order and the session drained,
// which reproduces the historical batch engine cycle for cycle (the
// admission pump only ever crosses cycles whose outcome cannot depend
// on commands the session has not seen yet). A broken simulator
// invariant anywhere in the pipeline (bus,
// bank controller, staging unit) unwinds to this boundary and is
// returned as a *fault.InvariantError instead of crashing the caller.
func (s *System) Run(t memsys.Trace) (res memsys.Result, err error) {
	defer fault.RecoverInvariant(&err)
	if err := t.Validate(); err != nil {
		return memsys.Result{}, err
	}
	ses, err := s.Open()
	if err != nil {
		return memsys.Result{}, err
	}
	// Batch mode knows the whole trace up front, so admission
	// backpressure buys nothing: lift the queue bound and skip the
	// per-cycle sealed-admission scan entirely. Timing is identical
	// either way (the pump only crosses sealed cycles); this is purely
	// the cheaper path.
	ses.queueDepth = len(t.Cmds) + 1
	// The trace length is known too, so size the per-command slices once
	// instead of growing them by doubling on a fresh system's first Run.
	fe := ses.fe
	fe.cmds = slices.Grow(fe.cmds, len(t.Cmds))
	fe.state = slices.Grow(fe.state, len(t.Cmds))
	fe.lines = slices.Grow(fe.lines, len(t.Cmds))
	for _, c := range t.Cmds {
		if _, err := ses.Issue(c); err != nil {
			return memsys.Result{}, err
		}
	}
	if err := ses.Drain(); err != nil {
		return memsys.Result{}, err
	}
	return ses.Result()
}

// frontEnd is the protocol engine of one session: the Vector Command
// Unit plus the channel dispatcher, stepped lazily by the session's
// cycle loop.
type frontEnd struct {
	cfg   Config
	cmds  []memsys.VectorCmd // accepted commands, ticket order
	state []cmdState

	// lines is each command's one line: a write's computed line from its
	// issue on, a read's gathered line from its first word collected or
	// fetched by the fallback; nil before.
	lines [][]uint32

	remaining  int // accepted commands not yet retired
	issuedLive int // commands currently holding a transaction ID
	lastDone   uint64

	store *memsys.Store   // backing store (serial fallback bypasses the devices)
	inj   *fault.Injector // nil: no fault injection anywhere

	// dropGuard serializes conflicting broadcasts per channel when the
	// fault plan can NACK them. On a reliable bus the ordering between
	// conflicting commands is implied by reservation order; once a
	// reserved broadcast can fail at delivery, a younger conflicting
	// command must wait for the older one's broadcast to actually land.
	dropGuard bool

	// chans holds the channels, in channel order: each one's board, bus
	// and bank controllers, its bus tenure, its waiting, staging and
	// fallback lists, and its counters. anyOffline reports a hard-faulted
	// bank on some channel.
	chans      []channel
	anyOffline bool

	// fbCost is the serial fallback's cost per element: a degraded bank's
	// elements are serviced one at a time over a dedicated maintenance
	// path, each paying one closed-row access on the device's timing plus
	// the transfer cycle (DESIGN.md §11).
	fbCost uint64

	// txnCmd maps each transaction ID to the ticket holding it, for the
	// lines a board reports settled.
	txnCmd [bus.MaxTransactions]int

	// due and landing are Step's scratch: the shares with a retire event
	// this cycle and the broadcasts landing this cycle, each ordered by
	// ticket and then channel.
	due, landing []share

	// closedForm marks a decoder with closed-form hit math (HitMath).
	// claims holds the pre-claimed element lists, one per transaction
	// ID (see claimList and preClaimed).
	closedForm bool
	claims     [bus.MaxTransactions]claimList

	// pending is set while an Issue call is pumping the loop under
	// backpressure: a command is waiting at the admission gate. The
	// moment a transaction ID frees, NextWake pins the clock (no idle
	// skip), so the pump hands control back on the exact next cycle and
	// the command is admitted precisely when the batch engine could
	// first have issued it — the keystone of streaming/batch cycle
	// equivalence.
	pending bool

	// poked records an outside event the loop's cached wake cannot
	// foresee: Session.Issue admitted a command or started waiting at
	// the admission gate. Step clears it (see Poked).
	poked bool

	// lastProgress is the watchdog's heartbeat: the latest cycle any
	// command was admitted, issued, broadcast, gathered, collected,
	// finished its fallback, or retired.
	lastProgress uint64

	// issued is the issued-prefix frontier: every command before it has
	// claimed a transaction ID, so the scans for unissued commands start
	// there.
	issued int

	// steps counts Step calls since the session opened: the front end's
	// share of host work, per command in BenchmarkDispatch.
	steps uint64

	// Free-list pools. Line buffers and per-channel state slices are
	// recycled instead of reallocated per command: chanState slices
	// return to chPool the moment their command retires (nothing reads
	// them afterwards), while line buffers — exposed to callers through
	// Result and TicketInfo — return to linePool only when the session
	// is reset for reuse, whether their command retired or not. Every
	// buffer in fe.lines is pool-owned: preset write data is copied in,
	// never retained, so recycling can never capture caller memory.
	// hitScratch backs the channel dispatcher's AppendSplit call; its
	// contents are consumed within accept.
	linePool   [][]uint32
	chPool     [][]chanState
	hitScratch []core.Hit
}

// getLine returns a zeroed line buffer of n words, reusing pooled
// capacity when available.
func (fe *frontEnd) getLine(n uint32) []uint32 {
	if k := len(fe.linePool); k > 0 {
		buf := fe.linePool[k-1]
		fe.linePool = fe.linePool[:k-1]
		if uint32(cap(buf)) >= n {
			buf = buf[:n]
			for j := range buf {
				buf[j] = 0
			}
			return buf
		}
	}
	return make([]uint32, n)
}

// getChans returns a cleared per-channel state slice of length C,
// preserving each slot's fallback-index capacity.
func (fe *frontEnd) getChans(C int) []chanState {
	if k := len(fe.chPool); k > 0 {
		ch := fe.chPool[k-1]
		fe.chPool = fe.chPool[:k-1]
		if cap(ch) >= C {
			ch = ch[:C]
			for j := range ch {
				fb := ch[j].fbIdxs
				ch[j] = chanState{fbIdxs: fb[:0]}
			}
			return ch
		}
	}
	return make([]chanState, C)
}

// reset rewinds the front end and its channels' hardware to the
// accepting-at-cycle-zero state, recycling every command's buffers into
// the pools (an unfinished command's too, after a failed run) and
// keeping all slice capacity.
func (fe *frontEnd) reset() {
	for i := range fe.state {
		if st := &fe.state[i]; st.ch != nil {
			fe.chPool = append(fe.chPool, st.ch)
			st.ch = nil
		}
		if fe.lines[i] != nil {
			fe.linePool = append(fe.linePool, fe.lines[i])
			fe.lines[i] = nil
		}
	}
	fe.cmds = fe.cmds[:0]
	fe.state = fe.state[:0]
	fe.lines = fe.lines[:0]
	fe.remaining = 0
	fe.issuedLive = 0
	fe.lastDone = 0
	fe.pending = false
	fe.poked = false
	fe.lastProgress = 0
	fe.issued = 0
	fe.steps = 0
	for ch := range fe.chans {
		fe.chans[ch].reset()
	}
}

// Poked reports an outside event since the last Step, after which the
// loop steps the front end on the next cycle whatever its cached wake.
// Between two Steps only two things change what the front end acts on:
// a transaction-complete line deasserting during a bank-controller
// tick (each channel's board latches the transaction in its settle
// mask), and Session.Issue admitting a command or starting to wait at
// the admission gate. Bus tenures, timers, retry back-off and
// dependences all belong to the front end, which clears the report in
// Step.
func (fe *frontEnd) Poked() bool {
	if fe.poked {
		return true
	}
	for ch := range fe.chans {
		if fe.chans[ch].board.Settled() != 0 {
			return true
		}
	}
	return false
}

// accept admits one command into the session at cycle now,
// returning its ticket index: the channel dispatcher's split (each
// command's element count per channel, by the closed form where the
// decoder supports it) plus degraded-mode routing for elements owned by
// offline bank controllers.
func (fe *frontEnd) accept(c memsys.VectorCmd, now uint64) int {
	i := len(fe.cmds)
	C := int(fe.cfg.Channels)
	st := cmdState{acceptedAt: now, ch: fe.getChans(C)}
	if c.Indexed() {
		// Indexed commands have no closed-form channel split: decode
		// every element's channel once for each channel's element count,
		// and bound the command's addresses. The per-bank claims are
		// built when the command takes its transaction ID.
		lo, hi := uint64(^uint64(0)), uint64(0)
		for e := uint32(0); e < c.V.Length; e++ {
			a := c.Addr(e)
			if uint64(a) < lo {
				lo = uint64(a)
			}
			if uint64(a) > hi {
				hi = uint64(a)
			}
			st.ch[fe.cfg.Decoder.Decode(a).Channel].count++
		}
		st.lo, st.hi = lo, hi
	} else {
		fe.hitScratch = addrmap.AppendSplit(fe.hitScratch[:0], fe.cfg.Decoder, c.V)
		hits := fe.hitScratch
		st.lo = uint64(c.V.Base)
		st.hi = uint64(c.V.Base) + uint64(c.V.Stride)*uint64(c.V.Length-1)
		for ch := 0; ch < C; ch++ {
			st.ch[ch].count = hits[ch].Count
		}
	}
	for ch := 0; ch < C; ch++ {
		cs := &st.ch[ch]
		cs.fbDone = true // until fallback elements are found below
		if cs.count > 0 {
			st.open++
		}
	}
	if fe.anyOffline {
		// Degraded-mode routing: enumerate the elements owned by offline
		// bank controllers; they re-route through the serial fallback
		// engine and never reach a live bank.
		for e := uint32(0); e < c.V.Length; e++ {
			co := fe.cfg.Decoder.Decode(c.Addr(e))
			if fe.chans[co.Channel].offline&(1<<co.Bank) != 0 {
				cs := &st.ch[co.Channel]
				cs.fbIdxs = append(cs.fbIdxs, e)
				cs.fbDone = false
			}
		}
	}
	fe.cmds = append(fe.cmds, c)
	fe.state = append(fe.state, st)
	fe.lines = append(fe.lines, nil)
	fe.remaining++
	fe.progress(now)
	fe.poked = true
	return i
}

// NextWake returns the earliest cycle >= now at which
// any front-end timer may fire — a channel's tenure landing (a
// broadcast, or the end of a STAGE_READ burst), its bus decision point
// arriving with a share waiting for the bus or a gathered read waiting
// to stage, its fallback head finishing, or an unissued command
// becoming broadcastable. Transaction-complete lines deasserting are
// outside events (Poked); bank-controller events are tracked by the
// channels' controller wakes. It is a lower bound — waking early merely
// costs a no-op step — but never an overestimate, which is what makes
// skipped cycles provably inert and cycle counts identical to the
// strict loop.
func (fe *frontEnd) NextWake(now uint64) uint64 {
	if fe.pending && fe.issuedLive < bus.MaxTransactions {
		// A command is waiting at the admission gate and a transaction
		// ID just freed: suppress idle skipping so the pump stops on the
		// very next cycle and admits it there — the first cycle the
		// batch engine could have issued it.
		return now
	}
	// floor is the earliest bus decision point of any channel: no
	// unissued command can wake the front end before it.
	next, floor := dramtech.NoEvent, dramtech.NoEvent
	for ch := range fe.chans {
		q := &fe.chans[ch]
		busFree := max(now, q.bus.BusyUntil())
		floor = min(floor, busFree)
		if q.ten.kind != noTenure {
			next = min(next, q.ten.at)
		}
		if len(q.stage) > 0 {
			next = min(next, busFree)
		} else if len(q.wait) > 0 {
			next = min(next, max(busFree, q.retryAt))
		}
		if len(q.fb) > 0 {
			next = min(next, fe.state[q.fb[0]].ch[ch].fbDoneAt)
		}
	}
	if next <= now {
		return now
	}
	if fe.issuedLive >= bus.MaxTransactions {
		return next // no unissued command can act before a retirement
	}
	// An unissued command may become broadcastable at a channel's next
	// bus decision point once its dependences are complete. (Conflict and
	// transaction-ID availability can defer it further; waking at the
	// bus point and finding nothing to do is harmless.) That wake depends
	// on the channel alone, so the scan stops once no channel can lower
	// the wake further.
	for i := fe.issued; i < len(fe.state) && next > floor; i++ {
		st := &fe.state[i]
		if st.issued || !fe.depsDone(i) {
			continue
		}
		for ch := range st.ch {
			if st.ch[ch].count > 0 {
				next = min(next, max(now, fe.chans[ch].bus.BusyUntil()))
			}
		}
	}
	return next
}

// debugString summarizes stuck state for the deadlock error: the stalled
// tickets by number, then per-ticket protocol state, then per channel
// its bus state and every bank controller's queues.
func (fe *frontEnd) debugString() string {
	var stalled []int
	for i := range fe.state {
		if !fe.state[i].completed {
			stalled = append(stalled, i)
		}
	}
	s := fmt.Sprintf("stalled tickets (%d of %d accepted): %v\n",
		len(stalled), len(fe.cmds), stalled)
	for _, i := range stalled {
		st := &fe.state[i]
		c := &fe.cmds[i]
		s += fmt.Sprintf("ticket %d %v V=%+v txn=%d issued=%v", i, c.Op, c.V, st.txn, st.issued)
		for ch := range st.ch {
			cs := &st.ch[ch]
			if cs.count == 0 {
				continue
			}
			s += fmt.Sprintf(" ch%d{n=%d bcast=%v gathered=%v staging=%v done=%v",
				ch, cs.count, cs.broadcastDone, cs.gathered, cs.stagingStarted, cs.done)
			if cs.attempts > 0 {
				s += fmt.Sprintf(" nacks=%d retryAt=%d", cs.attempts, cs.retryAt)
			}
			if len(cs.fbIdxs) > 0 {
				s += fmt.Sprintf(" fb=%d fbDone=%v", len(cs.fbIdxs), cs.fbDone)
			}
			s += "}"
		}
		s += "\n"
	}
	for ch := range fe.chans {
		q := &fe.chans[ch]
		s += fmt.Sprintf("ch%d bus busyUntil=%d", ch, q.bus.BusyUntil())
		switch q.ten.kind {
		case broadcastTenure:
			s += fmt.Sprintf(" broadcast=ticket %d at %d", q.ten.cmd, q.ten.at)
		case stageTenure:
			s += fmt.Sprintf(" stage-read=ticket %d until %d", q.ten.cmd, q.ten.at)
		}
		s += fmt.Sprintf(" waiting=%v staging=%v fallback=%v\n", q.wait, q.stage, q.fb)
		for _, bc := range q.bcs {
			if d := bc.DebugString(); d != "" {
				s += d + "\n"
			}
		}
	}
	return s
}

// Step is the front end's work for one cycle —
// schedule the next bus tenure on every channel (which may begin this
// very cycle), then deliver the broadcasts landing this cycle in ticket
// order, then retire in ticket order. It touches only the channels and
// transactions with an event due: a tenure ending, a line the board
// reports settled, a fallback share finishing.
func (fe *frontEnd) Step(now uint64) error {
	fe.steps++
	fe.due = fe.due[:0]
	for ch := range fe.chans {
		q := &fe.chans[ch]
		if q.ten.kind == stageTenure && q.ten.at == now {
			// The STAGE_READ data burst ends: the share collects below,
			// and the freed bus may start its next tenure right away.
			fe.due = addShare(fe.due, share{q.ten.cmd, ch})
			q.ten.kind = noTenure
		}
		if err := fe.scheduleChannel(ch, now); err != nil {
			return err
		}
	}
	fe.landing = fe.landing[:0]
	for ch := range fe.chans {
		if t := &fe.chans[ch].ten; t.kind == broadcastTenure && t.at == now {
			fe.landing = addShare(fe.landing, share{t.cmd, ch})
			t.kind = noTenure
		}
	}
	for _, sh := range fe.landing {
		if err := fe.deliver(sh.cmd, sh.ch, now); err != nil {
			return err
		}
	}
	// Transaction-complete lines that deasserted since the last step —
	// in bank-controller ticks, or at the broadcasts above — and the
	// fallback shares finishing this cycle.
	for ch := range fe.chans {
		q := &fe.chans[ch]
		for m := q.board.Settled(); m != 0; m &= m - 1 {
			fe.due = addShare(fe.due, share{fe.txnCmd[bits.TrailingZeros32(m)], ch})
		}
		q.board.ClearSettled()
		for len(q.fb) > 0 && fe.state[q.fb[0]].ch[ch].fbDoneAt <= now {
			fe.due = addShare(fe.due, share{q.fb[0], ch})
			q.fb = slices.Delete(q.fb, 0, 1)
		}
	}
	for _, sh := range fe.due {
		if err := fe.retire(sh.cmd, sh.ch, now); err != nil {
			return err
		}
	}
	fe.poked = false
	return nil
}

// deliver lands command i's broadcast on channel ch at cycle now. The
// vector bus may NACK it (a dropped or corrupted command cycle): the
// front end then releases its claim on the cycle, backs off
// exponentially and retransmits, up to the plan's retry budget.
// Otherwise the channel's transaction-complete line asserts for the
// banks that take the command: under closed-form hit math every live
// bank snoops the broadcast, its FirstHit predictor deciding; a
// pre-claimed command reaches only the live banks its claim list names.
func (fe *frontEnd) deliver(i, ch int, now uint64) error {
	st := &fe.state[i]
	cs := &st.ch[ch]
	c := &fe.cmds[i]
	q := &fe.chans[ch]
	if fe.inj != nil && fe.inj.DropBroadcast(uint32(ch), i, cs.attempts) {
		cs.attempts++
		q.stats.BusNACKs++
		if max := fe.inj.MaxRetries(); max >= 0 && cs.attempts > max {
			return &fault.BusFaultError{Channel: ch, Cmd: i, Attempts: cs.attempts}
		}
		cs.retryAt = now + fe.inj.BackoffDelay(cs.attempts)
		fe.enqueue(ch, i)
		return nil
	}
	if cs.attempts > 0 {
		q.stats.BusRetries++
	}
	owners := q.board.AllBanks()
	var cl *claimList
	if fe.preClaimed(c) {
		cl = &fe.claims[st.txn]
		owners = cl.owners[ch]
	}
	owners &^= q.offline
	q.board.Open(st.txn, owners)
	M := len(q.bcs)
	for m := owners; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		var owned []uint32
		if cl != nil {
			owned = cl.bank(ch*M + b)
		}
		// A controller that owns elements has caught its clock up and
		// queued the request; a write's line, which the STAGE_WRITE
		// burst ending this cycle carried, lands in its staging unit.
		// Tick it this cycle so the new work is scheduled on time. The
		// others stay asleep.
		took, err := q.bcs[b].ObserveCommand(now, c.Op, c.V, c.Idx, owned, st.txn)
		if err != nil {
			return err
		}
		if took {
			cs.took |= 1 << b
			if c.Op == memsys.Write {
				q.bcs[b].StageWriteData(st.txn, fe.lines[i])
			}
			q.wakeBank(b, now)
		}
	}
	cs.broadcastDone = true
	if c.Indexed() {
		q.stats.IndexBusCycles += uint64(dataCycles(cs.count))
		q.stats.IndexedElements += uint64(cs.count)
		q.stats.IndexedMaxBankClaim += uint64(cl.maxClaim[ch])
	}
	fe.progress(now)
	if !cs.fbDone {
		// Queue the degraded share on the channel's serial fallback
		// engine (one element at a time, FIFO across commands).
		start := max(now+1, q.fbBusy)
		cs.fbDoneAt = start + fe.fbCost*uint64(len(cs.fbIdxs))
		q.fbBusy = cs.fbDoneAt
		q.fb = append(q.fb, i)
	}
	fe.observe(trace.Event{Cycle: now, Bank: -1, Kind: trace.Broadcast, Txn: st.txn})
	// The line may already be down: no live bank took the command.
	fe.due = addShare(fe.due, share{i, ch})
	return nil
}

// retire advances command i's share on channel ch at cycle now, for an
// event due on it — its broadcast landed, its line deasserted, its
// STAGE_READ burst or its fallback finished — and retires the command
// once every participating channel is done.
func (fe *frontEnd) retire(i, ch int, now uint64) error {
	st := &fe.state[i]
	cs := &st.ch[ch]
	c := &fe.cmds[i]
	if cs.done {
		return nil
	}
	if !cs.fbDone && now >= cs.fbDoneAt {
		// The serial fallback finished this command's degraded share:
		// move the data directly between the line buffer and the store
		// (the maintenance path bypasses the dead bank's device — and
		// its ECC pipeline).
		fe.runFallback(i, st, ch)
		cs.fbDone = true
		fe.progress(now)
	}
	q := &fe.chans[ch]
	switch c.Op {
	case memsys.Read:
		if !cs.gathered && q.board.AllDone(st.txn) {
			cs.gathered = true
			fe.progress(now)
			if cs.live() > 0 {
				q.stage = addTicket(q.stage, i)
			}
		}
		if cs.stagingStarted && !cs.collected && cs.stageReadEnd == now {
			line := fe.readLine(i)
			got := 0
			for m := cs.took; m != 0; m &= m - 1 {
				got += q.bcs[bits.TrailingZeros64(m)].CollectRead(st.txn, line)
			}
			if got != int(cs.live()) {
				return fmt.Errorf("pvaunit: cmd %d channel %d staged %d of %d words", i, ch, got, cs.live())
			}
			cs.collected = true
			fe.progress(now)
		}
		cs.done = cs.gathered && cs.fbDone && (cs.live() == 0 || cs.collected)
	case memsys.Write:
		cs.done = cs.fbDone && q.board.AllDone(st.txn)
	}
	if cs.done {
		if st.open--; st.open == 0 {
			fe.finish(st, now)
		}
	}
	return nil
}

// enqueue puts command i's share on channel ch on the channel's list of
// shares waiting for the bus; dequeue takes it off when its broadcast
// tenure is reserved.
func (fe *frontEnd) enqueue(ch, i int) {
	q := &fe.chans[ch]
	q.wait = addTicket(q.wait, i)
	fe.backoff(ch)
}

func (fe *frontEnd) dequeue(ch, i int) {
	q := &fe.chans[ch]
	q.wait = dropTicket(q.wait, i)
	fe.backoff(ch)
}

// backoff recomputes channel ch's retryAt, the earliest cycle any of its
// waiting shares may reserve the bus. Only a bus that can NACK backs a
// share off; on any other every retryAt stays 0.
func (fe *frontEnd) backoff(ch int) {
	if !fe.dropGuard {
		return
	}
	q := &fe.chans[ch]
	q.retryAt = dramtech.NoEvent
	for _, i := range q.wait {
		q.retryAt = min(q.retryAt, fe.state[i].ch[ch].retryAt)
	}
}

// scheduleChannel reserves at most one new bus tenure on channel ch per
// cycle, when that bus's decision point has arrived (its current tenure
// has drained): the one pick selects, after issuing its command if the
// command has no transaction ID yet.
func (fe *frontEnd) scheduleChannel(ch int, now uint64) error {
	q := &fe.chans[ch]
	if q.bus.BusyUntil() > now {
		return nil
	}
	i, stage := fe.pick(ch, now)
	if i < 0 {
		return nil
	}
	st := &fe.state[i]
	cs := &st.ch[ch]
	if stage {
		q.stage = dropTicket(q.stage, i)
		cmdAt := q.bus.Free(now, bus.Controller)
		if err := q.bus.Reserve(cmdAt, 1, bus.Controller); err != nil {
			return err
		}
		dataAt := q.bus.Free(cmdAt+1, bus.Banks)
		if err := q.bus.Reserve(dataAt, uint64(dataCycles(cs.live())), bus.Banks); err != nil {
			return err
		}
		cs.stagingStarted = true
		cs.stageReadEnd = dataAt + uint64(dataCycles(cs.live()))
		q.ten = tenure{kind: stageTenure, cmd: i, at: cs.stageReadEnd}
		fe.observe(trace.Event{Cycle: cmdAt, Bank: -1, Kind: trace.StageRead, Txn: st.txn})
		return nil
	}
	c := &fe.cmds[i]
	if !st.issued {
		// One transaction-ID pool spans all channels: claim the same ID
		// on every channel's board so each wired-OR line tracks its
		// channel's share independently.
		txn, free := fe.chans[0].board.Alloc()
		if !free {
			fault.Invariantf("pvaunit", "transaction pool empty with %d issued", fe.issuedLive)
		}
		for other := 1; other < len(fe.chans); other++ {
			fe.chans[other].board.Claim(txn)
		}
		st.txn = txn
		st.issued = true
		st.issuedAt = now
		if fe.preClaimed(c) {
			fe.claims[txn].build(fe.cfg.Decoder, c)
		}
		fe.txnCmd[txn] = i
		for fe.issued < len(fe.state) && fe.state[fe.issued].issued {
			fe.issued++
		}
		// The command's shares on the other channels wait for their own
		// buses; this one reserves its tenure below.
		for other := range st.ch {
			if other != ch && st.ch[other].count > 0 {
				fe.enqueue(other, i)
			}
		}
		fe.issuedLive++
		fe.progress(now)
		if c.Op == memsys.Write {
			data, err := memsys.WriteData(*c, fe.lines)
			if err != nil {
				return fmt.Errorf("pvaunit: ticket %d at cycle %d: %w", i, now, err)
			}
			// Copy into a pool-owned buffer: WriteData may return the
			// command's own preset Data, and the pools must never
			// capture caller memory.
			fe.lines[i] = fe.getLine(uint32(len(data)))
			copy(fe.lines[i], data)
		}
	} else {
		fe.dequeue(ch, i)
	}
	// An indexed command's tenure additionally streams the index list
	// over the bus — two 32-bit indices per cycle, the Section 7
	// protocol — before the banks can claim their elements, so the
	// broadcast lands at the end of the index burst. A write's tenure is
	// the STAGE_WRITE command, this channel's index burst, the data
	// burst and the VEC_WRITE broadcast, all controller-driven and
	// contiguous.
	burst := uint64(1)
	if c.Indexed() {
		burst += uint64(dataCycles(cs.count))
	}
	if c.Op == memsys.Write {
		burst += uint64(dataCycles(cs.count)) + 1
	}
	at := q.bus.Free(now, bus.Controller)
	if err := q.bus.Reserve(at, burst, bus.Controller); err != nil {
		return err
	}
	q.ten = tenure{kind: broadcastTenure, cmd: i, at: at + burst - 1}
	if c.Op == memsys.Write {
		fe.observe(trace.Event{Cycle: at, Bank: -1, Kind: trace.StageWrite, Txn: st.txn})
	}
	return nil
}

// pick is the bus-selection scan of channel ch at cycle now, without
// side effects: the command whose tenure scheduleChannel reserves once
// the bus's decision point has arrived, and whether that tenure drains
// a gathered read (STAGE_READ) rather than broadcasting; -1 when no
// admitted command can take it.
func (fe *frontEnd) pick(ch int, now uint64) (int, bool) {
	q := &fe.chans[ch]
	// Priority 1: drain the oldest gathered read — it frees a
	// transaction and unblocks dependents.
	if len(q.stage) > 0 {
		return q.stage[0], true
	}
	// Priority 2: broadcast the oldest command with work for this
	// channel. A younger issued command may still need this channel's
	// broadcast before any transaction can retire, so the scan passes
	// over waiting shares it cannot pick: those backing off after a NACK
	// and those behind an older conflicting broadcast.
	pick := -1
	for _, i := range q.wait {
		if fe.state[i].ch[ch].retryAt > now {
			continue
		}
		if fe.dropGuard && fe.olderConflictPending(i, ch) {
			continue
		}
		pick = i
		break
	}
	if fe.issuedLive >= bus.MaxTransactions {
		return pick, false // no unissued command can take an ID
	}
	// An older unissued command that may issue now goes first.
	end := len(fe.state)
	if pick >= 0 {
		end = pick
	}
	for i := fe.issued; i < end; i++ {
		st := &fe.state[i]
		if st.issued || st.ch[ch].count == 0 {
			continue
		}
		if fe.dropGuard && fe.olderConflictPending(i, ch) {
			continue
		}
		if fe.eligible(i) {
			return i, false
		}
	}
	return pick, false
}

// sealed reports whether stepping cycle now cannot possibly issue or
// reserve a bus tenure for a command that has not been admitted yet: on
// every channel whose decision point has arrived, either an admitted
// command will claim the tenure (an unadmitted command, being youngest,
// would never be reached) or the transaction pool is empty (so no
// command that is not yet issued can claim it). Issue pumps the
// loop only across sealed cycles, which is what makes a stream with
// backpressure land every admission on exactly the cycle the batch run
// would first act on the command. It is conservative: reporting
// unsealed merely stops the pump early, which only weakens backpressure,
// never timing equivalence.
func (fe *frontEnd) sealed(now uint64) bool {
	if fe.issuedLive >= bus.MaxTransactions {
		return true
	}
	for ch := range fe.chans {
		if fe.chans[ch].bus.BusyUntil() > now {
			continue // no decision point this cycle
		}
		if i, _ := fe.pick(ch, now); i < 0 {
			return false // an unadmitted command would be reached
		}
	}
	return true
}

// progress records a forward-progress heartbeat for the watchdog.
func (fe *frontEnd) progress(now uint64) {
	if now > fe.lastProgress {
		fe.lastProgress = now
	}
}

// runFallback completes command i's degraded share on channel ch: the
// serial maintenance path moves the offline banks' elements directly
// between the line buffer and the backing store. Ordering with live-bank
// traffic is safe because an element's home bank never changes — a word
// behind a dead bank is *always* serviced here, in broadcast (program)
// order per channel.
func (fe *frontEnd) runFallback(i int, st *cmdState, ch int) {
	c := &fe.cmds[i]
	cs := &st.ch[ch]
	if c.Op == memsys.Read {
		line := fe.readLine(i)
		for _, e := range cs.fbIdxs {
			line[e] = fe.store.Read(c.Addr(e))
		}
	} else {
		for _, e := range cs.fbIdxs {
			fe.store.Write(c.Addr(e), fe.lines[i][e])
		}
	}
	fe.chans[ch].stats.DegradedElements += uint64(len(cs.fbIdxs))
}

// readLine returns read i's line, taking it from the pool at the first
// word collected or fetched by the fallback.
func (fe *frontEnd) readLine(i int) []uint32 {
	if fe.lines[i] == nil {
		fe.lines[i] = fe.getLine(fe.cmds[i].V.Length)
	}
	return fe.lines[i]
}

// observe forwards a bus-level event to the configured sink.
func (fe *frontEnd) observe(e trace.Event) {
	if fe.cfg.Observer != nil {
		fe.cfg.Observer(e)
	}
}

// finish retires a command: records its completion time, releases the
// transaction on every channel's board and the staging state of the
// banks that took it.
func (fe *frontEnd) finish(st *cmdState, now uint64) {
	st.completed = true
	st.completedAt = now
	fe.observe(trace.Event{Cycle: now, Bank: -1, Kind: trace.TxnComplete, Txn: st.txn})
	for ch := range fe.chans {
		q := &fe.chans[ch]
		q.board.Release(st.txn)
		for m := st.ch[ch].took; m != 0; m &= m - 1 {
			q.bcs[bits.TrailingZeros64(m)].Release(st.txn)
		}
	}
	fe.remaining--
	fe.issuedLive--
	fe.progress(now)
	if now > fe.lastDone {
		fe.lastDone = now
	}
	// The per-channel state is never read after retirement: recycle it.
	// The line buffer lives on (Result and TicketInfo expose it) and is
	// recycled only at session reset.
	fe.chPool = append(fe.chPool, st.ch)
	st.ch = nil
}

// eligible reports whether command i may be broadcast: dependences
// completed and no conflicting earlier command still waiting. The
// conflict guard keeps the out-of-order front end from reordering
// aliasing commands — within a bank controller the polarity rule of
// Section 5.2.4 provides this guarantee, but only for commands that
// arrive in order.
func (fe *frontEnd) eligible(i int) bool {
	if !fe.depsDone(i) {
		return false
	}
	c := &fe.cmds[i]
	for e := fe.issued; e < i; e++ {
		if fe.state[e].issued {
			continue
		}
		ec := &fe.cmds[e]
		if (ec.Op == memsys.Write || c.Op == memsys.Write) && fe.overlaps(e, i) {
			return false
		}
	}
	return true
}

// depsDone reports whether every command i depends on has completed.
func (fe *frontEnd) depsDone(i int) bool {
	for _, d := range fe.cmds[i].DependsOn {
		if !fe.state[d].completed {
			return false
		}
	}
	return true
}

// olderConflictPending reports whether an earlier command that may
// touch the same words as command i has yet to deliver its broadcast on
// this channel. The banks order conflicting accesses by broadcast
// arrival, and the serial fallback chains in broadcast order, so on a
// lossy bus (where even a reserved tenure can be NACKed at delivery) a
// younger conflicting command must hold its reservation until every
// older conflicting broadcast has actually landed. On a reliable bus
// reservation order alone implies arrival order, so this guard is never
// consulted there and fault-free timing is unchanged. Only the
// channel's waiting shares can be pending when its bus is free: a
// command in flight passed eligible, so every older command it
// conflicts with had issued by then, and an older unissued conflicting
// command already fails eligible.
func (fe *frontEnd) olderConflictPending(i, ch int) bool {
	c := &fe.cmds[i]
	for _, e := range fe.chans[ch].wait {
		if e >= i {
			break
		}
		ec := &fe.cmds[e]
		if (ec.Op == memsys.Write || c.Op == memsys.Write) && fe.overlaps(e, i) {
			return true
		}
	}
	return false
}

// overlaps conservatively tests whether two admitted commands might
// touch a common word, by intersecting the address bounds accept
// computed (the historical strided arithmetic, min/max of the resolved
// addresses for indexed commands).
func (fe *frontEnd) overlaps(a, b int) bool {
	sa, sb := &fe.state[a], &fe.state[b]
	return sa.lo <= sb.hi && sb.lo <= sa.hi
}

// dataCycles is the number of bus data cycles a line of n words needs:
// two words (64 bits) per cycle.
func dataCycles(n uint32) int { return int((n + 1) / 2) }
