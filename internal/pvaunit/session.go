package pvaunit

import (
	"fmt"

	"pva/internal/addrmap"
	"pva/internal/bankctl"
	"pva/internal/bus"
	"pva/internal/core"
	"pva/internal/dramtech"
	"pva/internal/engine"
	"pva/internal/fault"
	"pva/internal/memsys"
)

// Session is a streaming front end onto one PVA system: commands enter
// one at a time through Issue, execute on the shared clocked engine, and
// retire asynchronously. Poll observes a ticket without advancing the
// clock; Wait and Drain pump the engine until the ticket (or all work)
// completes.
//
// Admission is bounded: when every one of the eight bus transaction IDs
// is claimed and QueueDepth commands already wait behind them, Issue
// blocks — it pumps the engine until a transaction retires — before
// admitting the new command. The backpressure is what keeps an
// unbounded producer from growing the reorder window past what the
// hardware (eight Register File entries per bank controller) models.
//
// Timing is bit-identical to the batch path: a trace issued one command
// at a time through a Session and drained executes in exactly the
// cycles Run reports for the same trace, because Issue only ever
// advances the clock through windows in which the waiting command could
// not possibly have issued (the transaction pool is exhausted) and
// admits it on the first cycle it could.
//
// A Session is not safe for concurrent use, and a System supports one
// live Session at a time: Open builds the hardware once and every later
// Open returns the same Session rewound to cycle zero (hardware state,
// pools and engine registrations are recycled in place), so opening a
// new session invalidates the previous handle and every buffer it
// exposed through Result or TicketInfo.
type Session struct {
	sys        *System
	fe         *frontEnd
	eng        *engine.Engine
	queueDepth int
	err        error // sticky: first engine/protocol failure kills the session

	// Persistent pump conditions: Issue and Wait run on these two
	// closures (allocated once at Open) instead of constructing one per
	// call, keeping the steady-state hot path allocation-free.
	waitTicket Ticket
	condWait   func() bool
	condQueue  func() bool

	// Result's reusable output buffers; see Result for the aliasing
	// contract.
	readData  [][]uint32
	chanStats []memsys.Stats
}

// reuse rewinds the cached session to the accepting-at-cycle-zero state:
// hardware reset in place (boards, buses, bank controllers, devices,
// engine clock), front-end state recycled into the pools, sticky error
// and queue depth restored to their Open defaults. A reused session is
// bit-identical to a freshly built one — the fault injector is stateless
// and each bank controller's reset clears its row predictors.
func (s *Session) reuse() {
	for ch := range s.fe.boards {
		s.fe.boards[ch].Reset()
		s.fe.buses[ch].Reset()
	}
	for _, row := range s.fe.bcs {
		for _, bc := range row {
			bc.Reset()
		}
	}
	s.fe.reset()
	s.eng.Reset()
	s.err = nil
	s.queueDepth = bus.MaxTransactions
}

// Ticket names a command accepted by a Session, in admission order.
type Ticket int

// TicketInfo is a point-in-time snapshot of one command's progress.
type TicketInfo struct {
	Ticket Ticket
	Op     memsys.Op
	// AcceptedAt is the cycle the command entered the session.
	AcceptedAt uint64
	// Issued reports whether the command has claimed a transaction ID;
	// IssuedAt is the cycle it did.
	Issued   bool
	IssuedAt uint64
	// Done reports whether the command has retired; CompletedAt is the
	// cycle its last transaction-complete line deasserted.
	Done        bool
	CompletedAt uint64
	// Data is the gathered dense line of a completed read (nil for
	// writes and unfinished reads). The slice is the session's own
	// buffer, shared with Result; callers that mutate it must copy.
	Data []uint32
}

// Open builds the session's hardware — per-channel transaction boards,
// vector buses and bank controllers, all registered on a fresh clocked
// engine — and returns a Session accepting commands at cycle zero. The
// batch Run is exactly Open + Issue-everything + Drain.
//
// The hardware is built once per System: a second Open returns the same
// Session rewound in place, which invalidates the previous handle (and
// the buffers it exposed) but makes repeated Runs on one System
// allocation-free in steady state.
func (s *System) Open() (*Session, error) {
	if s.ses != nil {
		s.ses.reuse()
		return s.ses, nil
	}
	C := s.cfg.Channels
	M := s.cfg.Banks
	dec := s.cfg.Decoder
	// Decoders whose combined (channel, bank) selection is plain word
	// interleaving keep the paper's closed-form hit math: bank b of
	// channel ch is interleave unit b*C+ch of a C*M-unit system. Under
	// other decoders each controller addresses its device through a
	// BankView and receives every command pre-claimed.
	var geom core.Geometry
	hm, closedForm := dec.(addrmap.HitMath)
	if closedForm {
		geom = hm.HitGeometry()
	}
	inj := fault.NewInjector(s.cfg.Fault)
	offline := make([]bool, C*M)
	anyOffline := false
	for _, db := range s.cfg.Fault.DeadSet() {
		offline[db] = true
		anyOffline = true
	}
	boards := make([]*bus.Board, C)
	buses := make([]*bus.Bus, C)
	bcs := make([][]*bankctl.BC, C)
	for ch := uint32(0); ch < C; ch++ {
		boards[ch] = bus.NewBoard(M)
		buses[ch] = bus.New()
		bcs[ch] = make([]*bankctl.BC, M)
		for b := uint32(0); b < M; b++ {
			bcfg := bankctl.Config{
				SGeom:    s.cfg.SGeom,
				Timing:   s.cfg.Timing,
				Tech:     s.cfg.Tech,
				VCWindow: s.cfg.VCWindow,
				Policy:   s.cfg.Policy,
				Observer: s.cfg.Observer,
				Injector: inj,
			}
			if closedForm {
				bcfg.Bank = b*C + ch
				bcfg.Banks = C * M
				bcfg.Geom = geom
			} else {
				bcfg.Bank = ch*M + b
				bcfg.Banks = M
				bcfg.Geom = core.MustGeometry(M)
				bcfg.View = addrmap.BankView{D: dec, Channel: ch, Bank: b}
			}
			bcfg.FHCDelay = 2
			bc := bankctl.New(bcfg, s.store, boards[ch])
			bc.SetBoardBank(b)
			bcs[ch][b] = bc
		}
	}
	// Serial-fallback per-element cost: a degraded bank's elements are
	// serviced one at a time over a dedicated maintenance path — each
	// element pays one closed-row access on the device's timing plus the
	// transfer cycle (DESIGN.md §11).
	fbCost := s.cfg.Tech.Timing(s.cfg.Timing).ClosedAccess() + 1
	fe := &frontEnd{
		cfg:        s.cfg,
		boards:     boards,
		buses:      buses,
		bcs:        bcs,
		store:      s.store,
		inj:        inj,
		dropGuard:  inj != nil && s.cfg.Fault.DropRate > 0,
		offline:    offline,
		anyOffline: anyOffline,
		fbCost:     fbCost,
		inflight:   make([]int, 0, bus.MaxTransactions),
		wakeSeen:   make([]bool, C),
		fbBusy:     make([]uint64, C),
		nacks:      make([]uint64, C),
		retries:    make([]uint64, C),
		fallbk:     make([]uint64, C),

		idxBus:      make([]uint64, C),
		idxElems:    make([]uint64, C),
		idxMaxClaim: make([]uint64, C),
		closedForm:  closedForm,
	}
	eng := engine.New(engine.Config{
		MaxCycles:       s.cfg.MaxCycles,
		WatchdogCycles:  s.cfg.WatchdogCycles,
		DisableIdleSkip: s.cfg.DisableIdleSkip,
	}, fe)
	// Member order is tick order: channel-major, bank-minor, the order
	// the historical batch loop used. Each channel's live controllers
	// sit behind one group registration — the engine's per-cycle
	// dispatch is one interface call per channel, the per-controller
	// loop runs on concrete types, and groups registered in channel
	// order tick in exactly the historical order. Hard-faulted
	// controllers are powered off and never added.
	fe.groups = make([]*bcGroup, C)
	fe.gidx = make([][]int, C)
	for ch := uint32(0); ch < C; ch++ {
		g := &bcGroup{}
		fe.groups[ch] = g
		fe.gidx[ch] = make([]int, M)
		for b := uint32(0); b < M; b++ {
			if offline[ch*M+b] {
				fe.gidx[ch][b] = -1
				continue
			}
			fe.gidx[ch][b] = g.add(bcs[ch][b])
		}
		g.h = eng.RegisterGroup(g)
	}
	ses := &Session{
		sys:        s,
		fe:         fe,
		eng:        eng,
		queueDepth: bus.MaxTransactions,
	}
	ses.condWait = func() bool { return !ses.fe.state[ses.waitTicket].completed }
	ses.condQueue = func() bool {
		return ses.fe.remaining-ses.fe.issuedLive >= ses.queueDepth &&
			ses.fe.sealed(ses.eng.Now())
	}
	s.ses = ses
	return ses, nil
}

// SetQueueDepth bounds the number of accepted-but-unissued commands the
// session holds before Issue applies backpressure (default: eight, the
// transaction-ID count). It must be at least one.
func (s *Session) SetQueueDepth(n int) error {
	if n < 1 {
		return fmt.Errorf("pvaunit: queue depth %d must be at least 1", n)
	}
	s.queueDepth = n
	return nil
}

// Now returns the session clock: the next cycle the engine will step.
func (s *Session) Now() uint64 { return s.eng.Now() }

// Outstanding returns the number of accepted commands not yet retired.
func (s *Session) Outstanding() int { return s.fe.remaining }

// Queued returns the number of accepted commands still waiting for a
// transaction ID.
func (s *Session) Queued() int { return s.fe.remaining - s.fe.issuedLive }

// Err returns the session's sticky failure, if any.
func (s *Session) Err() error { return s.err }

// Issue admits one command and returns its ticket. When the transaction
// pool is exhausted and the queue is full it first pumps the engine —
// backpressure — until a transaction retires, then admits the command
// on that exact cycle. Validation failures reject the command without
// poisoning the session; engine failures (deadlock, bus fault) are
// sticky.
func (s *Session) Issue(c memsys.VectorCmd) (Ticket, error) {
	if s.err != nil {
		return 0, s.err
	}
	if err := memsys.ValidateCmd(c, len(s.fe.cmds)); err != nil {
		return 0, err
	}
	if s.fe.remaining-s.fe.issuedLive >= s.queueDepth {
		// Backpressure: advance the clock until the queue drains below
		// the bound, but only across sealed cycles — cycles that
		// provably cannot issue a command the batch engine would have
		// known about but this session does not yet. The pump therefore
		// stops, and the command is admitted, on exactly the first cycle
		// at which its presence could matter.
		s.fe.pending = true
		s.fe.poked = true
		err := s.pump(s.condQueue)
		s.fe.pending = false
		if err != nil {
			return 0, err
		}
	}
	return Ticket(s.fe.accept(c, s.eng.Now())), nil
}

// Poll reports a ticket's progress without advancing the clock.
func (s *Session) Poll(t Ticket) (TicketInfo, error) {
	if err := s.checkTicket(t); err != nil {
		return TicketInfo{}, err
	}
	return s.info(t), nil
}

// Wait pumps the engine until the ticket completes (a no-op when it
// already has), then reports it.
func (s *Session) Wait(t Ticket) (TicketInfo, error) {
	if err := s.checkTicket(t); err != nil {
		return TicketInfo{}, err
	}
	if s.err != nil {
		return TicketInfo{}, s.err
	}
	s.waitTicket = t
	if err := s.pump(s.condWait); err != nil {
		return TicketInfo{}, err
	}
	if !s.fe.state[t].completed {
		// Done went true with the ticket unfinished: impossible unless
		// the bookkeeping is broken.
		return TicketInfo{}, fmt.Errorf("pvaunit: session drained with ticket %d incomplete", t)
	}
	return s.info(t), nil
}

// Drain pumps the engine until every accepted command has retired.
func (s *Session) Drain() error {
	if s.err != nil {
		return s.err
	}
	return s.pump(nil)
}

// Result assembles the run's result so far: total cycles (completion of
// the last retired transaction), the gathered line of every completed
// read, and the statistics folded from every device and bus via
// Stats.Merge. After Drain it is exactly what the batch Run returns.
//
// ReadData and ChannelStats are the session's own reusable buffers:
// they stay valid until the next Result call or the next Open/Run on
// the same System, whichever comes first. Callers that keep results
// across runs must copy.
func (s *Session) Result() (memsys.Result, error) {
	if s.err != nil {
		return memsys.Result{}, s.err
	}
	res := memsys.Result{Cycles: s.fe.lastDone}
	if len(s.fe.cmds) > 0 {
		rd := s.readData[:0]
		for i, c := range s.fe.cmds {
			var line []uint32
			if c.Op == memsys.Read && s.fe.state[i].completed {
				line = s.fe.lines[i]
			}
			rd = append(rd, line)
		}
		s.readData = rd
		res.ReadData = rd
	}
	// Fold device and bus counters into the common stats, keeping the
	// per-channel breakdown.
	if cap(s.chanStats) < int(s.sys.cfg.Channels) {
		s.chanStats = make([]memsys.Stats, s.sys.cfg.Channels)
	}
	s.chanStats = s.chanStats[:s.sys.cfg.Channels]
	for i := range s.chanStats {
		s.chanStats[i] = memsys.Stats{}
	}
	res.ChannelStats = s.chanStats
	for ch := range s.fe.bcs {
		cs := &res.ChannelStats[ch]
		for _, bc := range s.fe.bcs[ch] {
			cs.Merge(deviceStats(bc.Device().Stats()))
		}
		cs.BusBusyCycles = s.fe.buses[ch].BusyCycles()
		cs.TurnaroundCycles = s.fe.buses[ch].TurnaroundCycles()
		cs.BusNACKs = s.fe.nacks[ch]
		cs.BusRetries = s.fe.retries[ch]
		cs.DegradedElements = s.fe.fallbk[ch]
		cs.IndexBusCycles = s.fe.idxBus[ch]
		cs.IndexedElements = s.fe.idxElems[ch]
		cs.IndexedMaxBankClaim = s.fe.idxMaxClaim[ch]
		res.Stats.Merge(*cs)
	}
	return res, nil
}

// pump advances the engine while cond holds (nil: to Done), converting
// invariant panics anywhere in the pipeline into errors and making any
// failure sticky.
func (s *Session) pump(cond func() bool) (err error) {
	defer fault.RecoverInvariant(&err)
	defer func() {
		if err != nil && s.err == nil {
			s.err = err
		}
	}()
	return s.eng.RunWhile(cond)
}

func (s *Session) checkTicket(t Ticket) error {
	if t < 0 || int(t) >= len(s.fe.cmds) {
		return fmt.Errorf("pvaunit: ticket %d out of range (have %d)", t, len(s.fe.cmds))
	}
	return nil
}

// info snapshots a ticket. Callers have bounds-checked t.
func (s *Session) info(t Ticket) TicketInfo {
	st := &s.fe.state[t]
	ti := TicketInfo{
		Ticket:      t,
		Op:          s.fe.cmds[t].Op,
		AcceptedAt:  st.acceptedAt,
		Issued:      st.issued,
		IssuedAt:    st.issuedAt,
		Done:        st.completed,
		CompletedAt: st.completedAt,
	}
	if st.completed && ti.Op == memsys.Read {
		ti.Data = s.fe.lines[t]
	}
	return ti
}

// deviceStats maps one SDRAM device's counters onto the shared Stats
// shape so Stats.Merge can fold them.
func deviceStats(ds dramtech.Stats) memsys.Stats {
	return memsys.Stats{
		SDRAMReads:         ds.Reads,
		SDRAMWrites:        ds.Writes,
		Activates:          ds.Activates,
		Precharges:         ds.Precharges,
		RowHits:            ds.RowHits,
		SubarrayHits:       ds.SubarrayHits,
		RowConflicts:       ds.RowConflicts,
		PartitionStalls:    ds.PartitionStalls,
		ReadLatencyCycles:  ds.ReadLatencyCycles,
		WriteLatencyCycles: ds.WriteLatencyCycles,
		CorrectedECC:       ds.CorrectedECC,
		UncorrectedECC:     ds.UncorrectedECC,
		ECCRetries:         ds.ECCRetries,
	}
}
