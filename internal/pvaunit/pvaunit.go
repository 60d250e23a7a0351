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
// Since the streaming refactor the front end is an engine.Driver: the
// shared clocked engine (internal/engine) owns the cycle loop, the lazy
// per-controller ticking, the idle-cycle skipping, and the watchdog and
// MaxCycles backstops. Commands enter through a Session (session.go) —
// Issue/Poll/Wait/Drain — and the batch Run(Trace) below is a thin
// wrapper (issue everything at cycle zero, drain) that is bit-identical
// to the historical batch engine.
package pvaunit

import (
	"fmt"
	"slices"

	"pva/internal/addr"
	"pva/internal/addrmap"
	"pva/internal/bankctl"
	"pva/internal/bus"
	"pva/internal/core"
	"pva/internal/dramtech"
	"pva/internal/engine"
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
	// the engine advances the clock directly to the next event cycle
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

// Store exposes the system's backing word store. Callers may seed or
// audit memory contents between runs; touching it while a session is
// pumping races with the devices.
func (s *System) Store() *memsys.Store { return s.store }

// DeviceStats returns every bank controller's device counters in flat
// channel*Banks+bank order, for the current session's hardware — nil
// before the first Open/Run. The counters are the last run's alone:
// every Open rewinds the devices.
func (s *System) DeviceStats() []dramtech.Stats {
	if s.ses == nil {
		return nil
	}
	out := make([]dramtech.Stats, 0, int(s.cfg.Channels)*int(s.cfg.Banks))
	for _, row := range s.ses.fe.bcs {
		for _, bc := range row {
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

// chanState tracks one command's progress on one memory channel.
type chanState struct {
	active         bool   // this channel owns at least one element
	count          uint32 // elements this channel owns
	reserved       bool   // this channel's broadcast bus tenure is reserved
	broadcastDone  bool   // this channel's BCs observed the VEC_* command
	broadcastAt    uint64 // the VEC_* cycle, the last of a write's STAGE_WRITE tenure
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
	acceptedAt  uint64 // engine cycle the command entered the session
	issuedAt    uint64 // engine cycle the transaction ID was claimed
	completedAt uint64
	line        []uint32    // read: gathered data; write: staged data
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
// Unit plus the channel dispatcher, run as the Driver of the shared
// clocked engine.
type frontEnd struct {
	cfg    Config
	cmds   []memsys.VectorCmd // accepted commands, ticket order
	state  []cmdState
	boards []*bus.Board // per channel
	buses  []*bus.Bus   // per channel
	bcs    [][]*bankctl.BC

	// groups batches each channel's live bank controllers behind one
	// engine.Group registration per channel (registration order is
	// channel order, so the engine ticks them exactly as the historical
	// single all-channel group did); gidx maps [channel][bank] to the
	// member index within its channel's group (-1 for hard-faulted
	// banks). The front end uses it to force the tick of a controller a
	// broadcast feeds in the broadcast cycle.
	groups []*bcGroup
	gidx   [][]int

	lines      [][]uint32 // per command: gathered line (reads) or computed line (writes)
	remaining  int        // accepted commands not yet retired
	issuedLive int        // commands currently holding a transaction ID
	lastDone   uint64

	store *memsys.Store   // backing store (serial fallback bypasses the devices)
	inj   *fault.Injector // nil: no fault injection anywhere

	// dropGuard serializes conflicting broadcasts per channel when the
	// fault plan can NACK them. On a reliable bus the ordering between
	// conflicting commands is implied by reservation order; once a
	// reserved broadcast can fail at delivery, a younger conflicting
	// command must wait for the older one's broadcast to actually land.
	dropGuard bool

	// offline marks hard-faulted bank controllers (flat channel*M+bank):
	// never registered on the engine, never observed, their board lines
	// deasserted at broadcast.
	offline    []bool
	anyOffline bool
	fbCost     uint64   // serial-fallback cost per element, in cycles
	fbBusy     []uint64 // per channel: cycle the fallback engine frees up
	nacks      []uint64 // per channel: broadcasts NACKed
	retries    []uint64 // per channel: broadcasts delivered on a retransmission
	fallbk     []uint64 // per channel: elements serviced by the fallback

	// Indexed-command accounting, per channel, charged at successful
	// broadcast delivery (retransmissions never double-count).
	idxBus      []uint64 // bus data cycles carrying index lists
	idxElems    []uint64 // elements moved by indexed commands
	idxMaxClaim []uint64 // summed per-broadcast max per-bank claims

	// wakeSeen is NextWake's per-channel scratch: which channels an
	// unissued command has already given a wake.
	wakeSeen []bool

	// closedForm marks a decoder with closed-form hit math (HitMath).
	// claims holds the pre-claimed element lists, one per transaction
	// ID (see claimList and preClaimed).
	closedForm bool
	claims     [bus.MaxTransactions]claimList

	// pending is set while an Issue call is pumping the engine under
	// backpressure: a command is waiting at the admission gate. The
	// moment a transaction ID frees, NextWake pins the clock (no idle
	// skip), so the pump hands control back on the exact next cycle and
	// the command is admitted precisely when the batch engine could
	// first have issued it — the keystone of streaming/batch cycle
	// equivalence.
	pending bool

	// poked records an outside event the engine's cached wake cannot
	// foresee: Session.Issue admitted a command or started waiting at
	// the admission gate. Step clears it (see Poked).
	poked bool

	// lastProgress is the watchdog's heartbeat: the latest cycle any
	// command was admitted, issued, broadcast, gathered, collected,
	// finished its fallback, or retired.
	lastProgress uint64

	// first is the completed-prefix frontier: every command before it has
	// retired, so the scans over admitted commands start there.
	first int
	// inflight lists the issued, unretired commands in ticket order: at
	// most bus.MaxTransactions of them. Per-channel tenures (reserved and
	// staging state) exist only on these commands, so Step's broadcast
	// and retire loops and the STAGE_READ drain walk this list alone.
	// While every transaction ID is out no unissued command can be
	// picked, or wake the engine before a retirement frees an ID, so the
	// broadcast scan (pick) and NextWake walk only this list too.
	// In batch mode the whole trace is admitted up front; this list is
	// what keeps those loops O(in-flight) per cycle.
	inflight []int

	// Free-list pools. Line buffers and per-channel state slices are
	// recycled instead of reallocated per command: chanState slices
	// return to chPool the moment their command retires (nothing reads
	// them afterwards), while line buffers — exposed to callers through
	// Result and TicketInfo — return to linePool only when the session
	// is reset for reuse. Every buffer in fe.lines is pool-owned: preset
	// write data is copied in, never retained, so recycling can never
	// capture caller memory. hitScratch backs the channel dispatcher's
	// AppendSplit call; its contents are consumed within accept.
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

// reset rewinds the front end to the accepting-at-cycle-zero state,
// recycling every command's buffers into the pools and keeping all
// slice capacity. The session's reuse path calls it after resetting the
// hardware (boards, buses, bank controllers, engine).
func (fe *frontEnd) reset() {
	for i := range fe.state {
		st := &fe.state[i]
		if st.ch != nil {
			fe.chPool = append(fe.chPool, st.ch)
			st.ch = nil
		}
		// A completed command's line is aliased by fe.lines[i] and is
		// recycled below; an in-flight read's line exists only here.
		if st.line != nil && fe.lines[i] == nil {
			fe.linePool = append(fe.linePool, st.line)
		}
		st.line = nil
	}
	for i, ln := range fe.lines {
		if ln != nil {
			fe.linePool = append(fe.linePool, ln)
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
	fe.first = 0
	fe.inflight = fe.inflight[:0]
	for _, g := range fe.groups {
		g.reset()
	}
	for ch := range fe.fbBusy {
		fe.fbBusy[ch] = 0
		fe.nacks[ch] = 0
		fe.retries[ch] = 0
		fe.fallbk[ch] = 0
		fe.idxBus[ch] = 0
		fe.idxElems[ch] = 0
		fe.idxMaxClaim[ch] = 0
	}
}

// Done implements engine.Driver: all accepted commands have retired.
func (fe *frontEnd) Done() bool { return fe.remaining == 0 }

// Poked implements engine.Driver. Between two Steps only two things
// change what NextWake reads: a transaction-complete line deasserting
// during a bank-controller tick (each channel's board latches it), and
// Session.Issue admitting a command or starting to wait at the
// admission gate. Bus tenures, timers, retry back-off and dependences
// all belong to the front end.
func (fe *frontEnd) Poked() bool {
	if fe.poked {
		return true
	}
	for _, b := range fe.boards {
		if b.Settled() {
			return true
		}
	}
	return false
}

// Progress implements engine.Driver.
func (fe *frontEnd) Progress() uint64 { return fe.lastProgress }

// DebugDump implements engine.Driver.
func (fe *frontEnd) DebugDump() string { return fe.debugString() }

// accept admits one command into the session at engine cycle now,
// returning its ticket index: the channel dispatcher's split (each
// command's element count per channel, by the closed form where the
// decoder supports it) plus degraded-mode routing for elements owned by
// offline bank controllers.
func (fe *frontEnd) accept(c memsys.VectorCmd, now uint64) int {
	i := len(fe.cmds)
	C := int(fe.cfg.Channels)
	M := int(fe.cfg.Banks)
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
		for ch := 0; ch < C; ch++ {
			st.ch[ch].active = st.ch[ch].count > 0
			st.ch[ch].fbDone = true // until fallback elements are found below
		}
	} else {
		fe.hitScratch = addrmap.AppendSplit(fe.hitScratch[:0], fe.cfg.Decoder, c.V)
		hits := fe.hitScratch
		st.lo = uint64(c.V.Base)
		st.hi = uint64(c.V.Base) + uint64(c.V.Stride)*uint64(c.V.Length-1)
		for ch := 0; ch < C; ch++ {
			st.ch[ch].count = hits[ch].Count
			st.ch[ch].active = hits[ch].Count > 0
			st.ch[ch].fbDone = true // until fallback elements are found below
		}
	}
	if fe.anyOffline {
		// Degraded-mode routing: enumerate the elements owned by offline
		// bank controllers; they re-route through the serial fallback
		// engine and never reach a live bank.
		for e := uint32(0); e < c.V.Length; e++ {
			co := fe.cfg.Decoder.Decode(c.Addr(e))
			if fe.offline[int(co.Channel)*M+int(co.Bank)] {
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

// NextWake implements engine.Driver: the earliest cycle >= now at which
// any front-end timer may fire — a command becoming broadcastable at a
// channel's bus decision point, a broadcast or staging burst ending, a
// fallback completing, or a transaction-complete line already observed
// deasserted. Bank-controller events are tracked by the engine itself.
// It is a lower bound — waking early merely costs a no-op iteration —
// but never an overestimate, which is what makes skipped cycles provably
// inert and cycle counts identical to the strict loop.
func (fe *frontEnd) NextWake(now uint64) uint64 {
	if fe.pending && fe.issuedLive < bus.MaxTransactions {
		// A command is waiting at the admission gate and a transaction
		// ID just freed: suppress idle skipping so the pump stops on the
		// very next cycle and admits it there — the first cycle the
		// batch engine could have issued it.
		return now
	}
	next := uint64(engine.NoEvent)
	upd := func(c uint64) {
		if c < next {
			next = c
		}
	}
	for _, i := range fe.inflight {
		st := &fe.state[i]
		c := &fe.cmds[i]
		for ch := range st.ch {
			cs := &st.ch[ch]
			if !cs.active || cs.done {
				continue
			}
			if !cs.reserved {
				at := max(now, fe.buses[ch].BusyUntil())
				if cs.retryAt > at {
					at = cs.retryAt // backing off after a NACK
				}
				upd(at)
				continue
			}
			if !cs.broadcastDone {
				upd(cs.broadcastAt)
				continue
			}
			if !cs.fbDone {
				upd(cs.fbDoneAt)
			}
			switch c.Op {
			case memsys.Read:
				switch {
				case cs.live() == 0:
					// Fallback-only share: fbDoneAt above is the timer.
				case !cs.gathered:
					// The transaction-complete line deasserts during a
					// bank controller Tick; once it has, the front end
					// must observe it on its very next step.
					if fe.boards[ch].AllDone(st.txn) {
						upd(now)
					}
				case !cs.stagingStarted:
					upd(max(now, fe.buses[ch].BusyUntil()))
				case !cs.collected:
					upd(cs.stageReadEnd)
				}
			case memsys.Write:
				if cs.fbDone && fe.boards[ch].AllDone(st.txn) {
					upd(now)
				}
			}
		}
		if next <= now {
			return now
		}
	}
	if fe.issuedLive >= bus.MaxTransactions {
		return next // no unissued command can act before a retirement
	}
	// An unissued command may become broadcastable at a channel's next
	// bus decision point once its dependences are complete. (Conflict and
	// transaction-ID availability can defer it further; waking at the
	// bus point and finding nothing to do is harmless.) That wake depends
	// on the channel alone, so the scan stops once every channel has one.
	seen := fe.wakeSeen
	clear(seen)
	left := len(seen)
	for i := fe.first; i < len(fe.state) && left > 0; i++ {
		st := &fe.state[i]
		if st.issued || !fe.depsDone(i) {
			continue
		}
		for ch := range st.ch {
			if st.ch[ch].active && !seen[ch] {
				seen[ch] = true
				left--
				upd(max(now, fe.buses[ch].BusyUntil()))
			}
		}
		if next <= now {
			return now
		}
	}
	return next
}

// debugString summarizes stuck state for the deadlock error: the stalled
// tickets by number, then per-ticket protocol state, per-channel bus
// state, and every bank controller's queues.
func (fe *frontEnd) debugString() string {
	var stalled []int
	for i := range fe.state {
		if !fe.state[i].completed {
			stalled = append(stalled, i)
		}
	}
	s := fmt.Sprintf("stalled tickets (%d of %d accepted): %v\n",
		len(stalled), len(fe.cmds), stalled)
	for ch, b := range fe.buses {
		s += fmt.Sprintf("ch%d bus busyUntil=%d\n", ch, b.BusyUntil())
	}
	for _, i := range stalled {
		st := &fe.state[i]
		c := &fe.cmds[i]
		s += fmt.Sprintf("ticket %d %v V=%+v txn=%d issued=%v", i, c.Op, c.V, st.txn, st.issued)
		for ch := range st.ch {
			cs := &st.ch[ch]
			if !cs.active {
				continue
			}
			s += fmt.Sprintf(" ch%d{n=%d rsv=%v bcast=%v gathered=%v staging=%v done=%v",
				ch, cs.count, cs.reserved, cs.broadcastDone, cs.gathered, cs.stagingStarted, cs.done)
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
	for _, row := range fe.bcs {
		for _, bc := range row {
			if d := bc.DebugString(); d != "" {
				s += d + "\n"
			}
		}
	}
	return s
}

// Step implements engine.Driver: the front end's work for one cycle —
// schedule the next bus tenure on every channel (which may begin this
// very cycle), then deliver due events and observe completion lines.
func (fe *frontEnd) Step(now uint64) error {
	for ch := range fe.buses {
		if err := fe.scheduleChannel(ch, now); err != nil {
			return err
		}
	}
	// Deliver the broadcasts due this cycle. Tenures only exist on
	// in-flight commands.
	for _, i := range fe.inflight {
		st := &fe.state[i]
		c := &fe.cmds[i]
		for ch := range st.ch {
			cs := &st.ch[ch]
			if !cs.reserved || cs.broadcastDone {
				continue
			}
			if cs.broadcastAt == now {
				// The vector bus may NACK the broadcast (a dropped or
				// corrupted command cycle): the front end releases its
				// claim on the cycle, backs off exponentially, and
				// retransmits — up to the plan's retry budget.
				if fe.inj != nil && fe.inj.DropBroadcast(uint32(ch), i, cs.attempts) {
					cs.attempts++
					fe.nacks[ch]++
					if max := fe.inj.MaxRetries(); max >= 0 && cs.attempts > max {
						return &fault.BusFaultError{Channel: ch, Cmd: i, Attempts: cs.attempts}
					}
					cs.reserved = false
					cs.retryAt = now + fe.inj.BackoffDelay(cs.attempts)
					continue
				}
				if cs.attempts > 0 {
					fe.retries[ch]++
				}
				fe.boards[ch].Open(st.txn)
				M := len(fe.bcs[ch])
				claimed := fe.preClaimed(c)
				var maxClaim uint32 // the broadcast's serialization floor
				for b, bc := range fe.bcs[ch] {
					var owned []uint32
					if claimed {
						owned = fe.claims[st.txn].bank(ch*M + b)
						maxClaim = max(maxClaim, uint32(len(owned)))
					}
					if fe.offline[ch*M+b] {
						// Hard-faulted controller: its wired-OR line would
						// never deassert, so the dispatcher deasserts it at
						// broadcast and re-routes the elements through the
						// serial fallback below.
						fe.boards[ch].Done(uint32(b), st.txn)
						continue
					}
					// A controller that owns elements has caught its clock
					// up and queued the request; a write's line, which the
					// STAGE_WRITE burst ending this cycle carried, lands in
					// its staging unit. Tick it this cycle so the new work
					// is scheduled on time. The others stay asleep.
					took, err := bc.ObserveCommand(now, c.Op, c.V, c.Idx, owned, st.txn)
					if err != nil {
						return err
					}
					if took {
						if c.Op == memsys.Write {
							bc.StageWriteData(st.txn, st.line)
						}
						fe.groups[ch].Wake(fe.gidx[ch][b], now)
					}
				}
				cs.broadcastDone = true
				if c.Indexed() {
					fe.idxBus[ch] += uint64(dataCycles(cs.count))
					fe.idxElems[ch] += uint64(cs.count)
					fe.idxMaxClaim[ch] += uint64(maxClaim)
				}
				fe.progress(now)
				if !cs.fbDone {
					// Queue the degraded share on the channel's serial
					// fallback engine (one element at a time, FIFO across
					// commands).
					start := now + 1
					if fe.fbBusy[ch] > start {
						start = fe.fbBusy[ch]
					}
					cs.fbDoneAt = start + fe.fbCost*uint64(len(cs.fbIdxs))
					fe.fbBusy[ch] = cs.fbDoneAt
				}
				fe.observe(trace.Event{Cycle: now, Bank: -1, Kind: trace.Broadcast, Txn: st.txn})
			}
		}
	}

	// Observe transaction-complete lines and finished STAGE_READ bursts,
	// per channel; a command retires when every participating channel is
	// done. Only in-flight commands can retire; the loop drops retired
	// ones from the list as it goes, keeping ticket order.
	kept := fe.inflight[:0]
	for _, i := range fe.inflight {
		st := &fe.state[i]
		c := &fe.cmds[i]
		allDone := true
		for ch := range st.ch {
			cs := &st.ch[ch]
			if !cs.active {
				continue
			}
			if !cs.broadcastDone {
				allDone = false
				continue
			}
			if !cs.fbDone && now >= cs.fbDoneAt {
				// The serial fallback finished this command's degraded
				// share: move the data directly between the line buffer
				// and the store (the maintenance path bypasses the dead
				// bank's device — and its ECC pipeline).
				fe.runFallback(i, st, ch)
				cs.fbDone = true
				fe.progress(now)
			}
			switch c.Op {
			case memsys.Read:
				if !cs.gathered && fe.boards[ch].AllDone(st.txn) {
					cs.gathered = true
					fe.progress(now)
				}
				if cs.stagingStarted && !cs.collected && cs.stageReadEnd == now {
					if st.line == nil {
						st.line = fe.getLine(c.V.Length)
					}
					got := 0
					M := len(fe.bcs[ch])
					for b, bc := range fe.bcs[ch] {
						if fe.offline[ch*M+b] {
							continue
						}
						got += bc.CollectRead(st.txn, st.line)
					}
					if got != int(cs.live()) {
						return fmt.Errorf("pvaunit: cmd %d channel %d staged %d of %d words", i, ch, got, cs.live())
					}
					cs.collected = true
					fe.progress(now)
				}
				if cs.gathered && cs.fbDone && (cs.live() == 0 || cs.collected) {
					cs.done = true
				}
			case memsys.Write:
				if !cs.done && cs.fbDone && fe.boards[ch].AllDone(st.txn) {
					cs.done = true
				}
			}
			if !cs.done {
				allDone = false
			}
		}
		if allDone {
			fe.finish(i, st, now)
		} else {
			kept = append(kept, i)
		}
	}
	fe.inflight = kept
	// Every line has been looked at: a deassertion from here on is news
	// for the next Step. (The front end's own Done calls above are
	// covered by the NextWake the engine takes after this Step.)
	fe.poked = false
	for _, b := range fe.boards {
		b.ClearSettled()
	}
	return nil
}

// scheduleChannel reserves at most one new bus tenure on channel ch per
// cycle, when that bus's decision point has arrived (its current tenure
// has drained): the one pick selects, after issuing its command if the
// command has no transaction ID yet.
func (fe *frontEnd) scheduleChannel(ch int, now uint64) error {
	chBus := fe.buses[ch]
	if chBus.BusyUntil() > now {
		return nil
	}
	i, stage := fe.pick(ch, now)
	if i < 0 {
		return nil
	}
	st := &fe.state[i]
	cs := &st.ch[ch]
	if stage {
		cmdAt := chBus.Free(now, bus.Controller)
		if err := chBus.Reserve(cmdAt, 1, bus.Controller); err != nil {
			return err
		}
		dataAt := chBus.Free(cmdAt+1, bus.Banks)
		if err := chBus.Reserve(dataAt, uint64(dataCycles(cs.live())), bus.Banks); err != nil {
			return err
		}
		cs.stagingStarted = true
		cs.stageReadEnd = dataAt + uint64(dataCycles(cs.live()))
		fe.observe(trace.Event{Cycle: cmdAt, Bank: -1, Kind: trace.StageRead, Txn: st.txn})
		return nil
	}
	c := &fe.cmds[i]
	if !st.issued {
		// One transaction-ID pool spans all channels: claim the same ID
		// on every channel's board so each wired-OR line tracks its
		// channel's share independently.
		txn, free := fe.boards[0].Alloc()
		if !free {
			fault.Invariantf("pvaunit", "transaction pool empty with %d issued", fe.issuedLive)
		}
		for _, board := range fe.boards[1:] {
			board.Claim(txn)
		}
		st.txn = txn
		st.issued = true
		st.issuedAt = now
		if fe.preClaimed(c) {
			fe.claims[txn].build(fe.cfg.Decoder, c)
		}
		fe.insertInflight(i)
		fe.issuedLive++
		fe.progress(now)
		if c.Op == memsys.Write {
			data, err := memsys.WriteData(*c, fe.lines)
			if err != nil {
				return err
			}
			// Copy into a pool-owned buffer: WriteData may return the
			// command's own preset Data, and the pools must never
			// capture caller memory.
			buf := fe.getLine(uint32(len(data)))
			copy(buf, data)
			st.line = buf
			fe.lines[i] = buf
		}
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
	at := chBus.Free(now, bus.Controller)
	if err := chBus.Reserve(at, burst, bus.Controller); err != nil {
		return err
	}
	cs.reserved = true
	cs.broadcastAt = at + burst - 1
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
	// Priority 1: drain a gathered read — it frees a transaction and
	// unblocks dependents. Gathered reads are in flight; a
	// fallback-only share has nothing staged in live banks.
	for _, i := range fe.inflight {
		cs := &fe.state[i].ch[ch]
		if fe.cmds[i].Op == memsys.Read && cs.active && cs.gathered && !cs.stagingStarted && cs.live() > 0 {
			return i, true
		}
	}
	// Priority 2: broadcast the oldest command with work for this
	// channel. A younger issued command may still need this channel's
	// broadcast before any transaction can retire, so the scan passes
	// over commands it cannot pick.
	for k, n := 0, fe.scanLen(); k < n; k++ {
		i := fe.scanAt(k)
		st := &fe.state[i]
		if st.completed {
			continue
		}
		cs := &st.ch[ch]
		if !cs.active || cs.reserved {
			continue
		}
		if cs.retryAt > now {
			continue // backing off after a NACKed broadcast
		}
		if fe.dropGuard && fe.olderConflictPending(i, ch) {
			continue // an older conflicting broadcast has not landed yet
		}
		// Only reached with a transaction ID free: a full pool scans the
		// in-flight list alone.
		if !st.issued && !fe.eligible(i) {
			continue
		}
		return i, false
	}
	return -1, false
}

// sealed reports whether stepping cycle now cannot possibly issue or
// reserve a bus tenure for a command that has not been admitted yet: on
// every channel whose decision point has arrived, either an admitted
// command will claim the tenure (an unadmitted command, being youngest,
// would never be reached) or the transaction pool is empty (so no
// command that is not yet issued can claim it). Issue pumps the
// engine only across sealed cycles, which is what makes a stream with
// backpressure land every admission on exactly the cycle the batch
// engine would first act on the command. It is conservative: reporting
// unsealed merely stops the pump early, which only weakens backpressure,
// never timing equivalence.
func (fe *frontEnd) sealed(now uint64) bool {
	if fe.issuedLive >= bus.MaxTransactions {
		return true
	}
	for ch, b := range fe.buses {
		if b.BusyUntil() > now {
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
		if st.line == nil {
			st.line = fe.getLine(c.V.Length)
		}
		for _, e := range cs.fbIdxs {
			st.line[e] = fe.store.Read(c.Addr(e))
		}
	} else {
		for _, e := range cs.fbIdxs {
			fe.store.Write(c.Addr(e), st.line[e])
		}
	}
	fe.fallbk[ch] += uint64(len(cs.fbIdxs))
}

// observe forwards a bus-level event to the configured sink.
func (fe *frontEnd) observe(e trace.Event) {
	if fe.cfg.Observer != nil {
		fe.cfg.Observer(e)
	}
}

// scanLen and scanAt enumerate, in ticket order, the commands a
// selection scan over admitted commands visits: every one from the
// completed-prefix frontier on, or only the in-flight list while the
// transaction pool is empty and no unissued command can act. Neither
// scan changes the pool before it returns.
func (fe *frontEnd) scanLen() int {
	if fe.issuedLive >= bus.MaxTransactions {
		return len(fe.inflight)
	}
	return len(fe.state) - fe.first
}

func (fe *frontEnd) scanAt(k int) int {
	if fe.issuedLive >= bus.MaxTransactions {
		return fe.inflight[k]
	}
	return fe.first + k
}

// insertInflight adds newly issued command i to the in-flight list at
// its ticket-order position (commands may issue out of order).
func (fe *frontEnd) insertInflight(i int) {
	k := len(fe.inflight)
	fe.inflight = append(fe.inflight, i)
	for ; k > 0 && fe.inflight[k-1] > i; k-- {
		fe.inflight[k] = fe.inflight[k-1]
	}
	fe.inflight[k] = i
}

// finish retires a command: records data and completion time, releases
// the transaction on every channel and all staging state. Step's retire
// loop, its only caller, drops the command from the in-flight list.
func (fe *frontEnd) finish(i int, st *cmdState, now uint64) {
	st.completed = true
	st.completedAt = now
	fe.observe(trace.Event{Cycle: now, Bank: -1, Kind: trace.TxnComplete, Txn: st.txn})
	if st.line != nil {
		fe.lines[i] = st.line
	}
	for _, board := range fe.boards {
		board.Release(st.txn)
	}
	M := int(fe.cfg.Banks)
	for ch, row := range fe.bcs {
		for b, bc := range row {
			if fe.offline[ch*M+b] {
				continue
			}
			bc.Release(st.txn)
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
	for fe.first < len(fe.state) && fe.state[fe.first].completed {
		fe.first++
	}
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
	for e := fe.first; e < i; e++ {
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

// olderConflictPending reports whether an earlier incomplete command
// that may touch the same words as command i has yet to deliver its
// broadcast on this channel. The banks order conflicting accesses by
// broadcast arrival, and the serial fallback chains in broadcast order,
// so on a lossy bus (where even a reserved tenure can be NACKed at
// delivery) a younger conflicting command must hold its reservation
// until every older conflicting broadcast has actually landed. On a
// reliable bus reservation order alone implies arrival order, so this
// guard is never consulted there and fault-free timing is unchanged.
// It walks the commands the calling scan walks: a command in flight
// passed eligible, so every older command it conflicts with had issued
// by then, and only in-flight ones can still be pending.
func (fe *frontEnd) olderConflictPending(i, ch int) bool {
	c := &fe.cmds[i]
	for k, n := 0, fe.scanLen(); k < n; k++ {
		e := fe.scanAt(k)
		if e >= i {
			break
		}
		est := &fe.state[e]
		if est.completed {
			continue
		}
		ecs := &est.ch[ch]
		if !ecs.active || ecs.broadcastDone {
			continue
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
