package pvaunit

import (
	"fmt"

	"pva/internal/addrmap"
	"pva/internal/bankctl"
	"pva/internal/bus"
	"pva/internal/core"
	"pva/internal/dramtech"
	"pva/internal/fault"
	"pva/internal/memsys"
)

// Session is a streaming front end onto one PVA system: commands enter
// one at a time through Issue, execute on the session's cycle loop, and
// retire asynchronously. Poll observes a ticket without advancing the
// clock; Wait and Drain pump the loop until the ticket (or all work)
// completes.
//
// Admission is bounded: when every one of the eight bus transaction IDs
// is claimed and QueueDepth commands already wait behind them, Issue
// blocks — it pumps the loop until a transaction retires — before
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
// Open returns the same Session rewound to cycle zero (hardware state
// and pools are recycled in place), so opening a new session
// invalidates the previous handle and every buffer it exposed through
// Result or TicketInfo.
type Session struct {
	sys        *System
	fe         *frontEnd
	queueDepth int
	err        error // sticky: first protocol failure kills the session

	// now is the session clock: the next cycle step runs. feWake caches
	// the front end's NextWake right after each of its Steps: the next
	// cycle its Step must run, absent an outside event.
	now    uint64
	feWake uint64

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
// session clock), front-end state recycled into the pools, sticky error
// and queue depth restored to their Open defaults. A reused session is
// bit-identical to a freshly built one — the fault injector is stateless
// and each bank controller's reset clears its row predictors.
func (s *Session) reuse() {
	s.fe.reset()
	s.now = 0
	s.feWake = 0
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

// Open builds the session's hardware — per channel, a transaction
// board, a vector bus and one bank controller per bank — and returns a
// Session accepting commands at cycle zero. The batch Run is exactly
// Open + Issue-everything + Drain.
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
	// interleaving keep the paper's closed-form hit math: each bank
	// controller is one interleave unit (HitUnit) of a C*M-unit system.
	// Under other decoders each controller addresses its device through
	// a BankView and receives every command pre-claimed.
	hm, closedForm := dec.(addrmap.HitMath)
	inj := fault.NewInjector(s.cfg.Fault)
	chans := make([]channel, C)
	anyOffline := false
	for _, db := range s.cfg.Fault.DeadSet() {
		chans[db/M].offline |= 1 << (db % M)
		anyOffline = true
	}
	for ch := uint32(0); ch < C; ch++ {
		q := &chans[ch]
		q.board = bus.NewBoard(M)
		q.bus = bus.New()
		q.bcs = make([]*bankctl.BC, M)
		q.wake = make([]uint64, M) // every controller due immediately
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
				bcfg.Bank = hm.HitUnit(ch, b)
				bcfg.Banks = C * M
				bcfg.Geom = hm.HitGeometry()
			} else {
				bcfg.Bank = ch*M + b
				bcfg.Banks = M
				bcfg.Geom = core.MustGeometry(M)
				bcfg.View = addrmap.BankView{D: dec, Channel: ch, Bank: b}
			}
			q.bcs[b] = bankctl.New(bcfg, s.store, q.board)
			q.bcs[b].SetBoardBank(b)
		}
	}
	fe := &frontEnd{
		cfg:        s.cfg,
		store:      s.store,
		inj:        inj,
		dropGuard:  inj != nil && s.cfg.Fault.DropRate > 0,
		chans:      chans,
		anyOffline: anyOffline,
		fbCost:     s.cfg.Tech.Timing(s.cfg.Timing).ClosedAccess() + 1,
		closedForm: closedForm,
	}
	ses := &Session{
		sys:        s,
		fe:         fe,
		queueDepth: bus.MaxTransactions,
	}
	ses.condWait = func() bool { return !ses.fe.state[ses.waitTicket].completed }
	ses.condQueue = func() bool {
		return ses.fe.remaining-ses.fe.issuedLive >= ses.queueDepth &&
			ses.fe.sealed(ses.now)
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

// Now returns the session clock: the next cycle the loop will step.
func (s *Session) Now() uint64 { return s.now }

// Outstanding returns the number of accepted commands not yet retired.
func (s *Session) Outstanding() int { return s.fe.remaining }

// Queued returns the number of accepted commands still waiting for a
// transaction ID.
func (s *Session) Queued() int { return s.fe.remaining - s.fe.issuedLive }

// Err returns the session's sticky failure, if any.
func (s *Session) Err() error { return s.err }

// Issue admits one command and returns its ticket. When the transaction
// pool is exhausted and the queue is full it first pumps the loop —
// backpressure — until a transaction retires, then admits the command
// on that exact cycle. Validation failures reject the command without
// poisoning the session; run failures (deadlock, bus fault) are
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
		// provably cannot issue a command the batch run would have
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
	return Ticket(s.fe.accept(c, s.now)), nil
}

// Poll reports a ticket's progress without advancing the clock.
func (s *Session) Poll(t Ticket) (TicketInfo, error) {
	if err := s.checkTicket(t); err != nil {
		return TicketInfo{}, err
	}
	return s.info(t), nil
}

// Wait pumps the loop until the ticket completes (a no-op when it
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
		// Every command retired with the ticket unfinished: impossible unless
		// the bookkeeping is broken.
		return TicketInfo{}, fmt.Errorf("pvaunit: session drained with ticket %d incomplete", t)
	}
	return s.info(t), nil
}

// Drain pumps the loop until every accepted command has retired.
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
	// Fold device and bus counters into each channel's own, keeping the
	// per-channel breakdown.
	if cap(s.chanStats) < len(s.fe.chans) {
		s.chanStats = make([]memsys.Stats, len(s.fe.chans))
	}
	res.ChannelStats = s.chanStats[:len(s.fe.chans)]
	for ch := range s.fe.chans {
		q := &s.fe.chans[ch]
		cs := &res.ChannelStats[ch]
		*cs = q.stats
		for _, bc := range q.bcs {
			cs.Merge(deviceStats(bc.Device().Stats()))
		}
		cs.BusBusyCycles = q.bus.BusyCycles()
		cs.TurnaroundCycles = q.bus.TurnaroundCycles()
		res.Stats.Merge(*cs)
	}
	return res, nil
}

// pump steps the loop while commands are outstanding and cond holds
// (nil: until every command retires), converting invariant panics
// anywhere in the pipeline into errors and making any failure sticky.
// cond is evaluated between cycles, so a caller waiting on an event
// observes it on the exact cycle the front end records it.
func (s *Session) pump(cond func() bool) (err error) {
	defer fault.RecoverInvariant(&err)
	defer func() {
		if err != nil && s.err == nil {
			s.err = err
		}
	}()
	for s.fe.remaining > 0 && (cond == nil || cond()) {
		if err := s.step(); err != nil {
			return err
		}
	}
	return nil
}

// step runs one cycle of the machine: the MaxCycles backstop and the
// watchdog, the front end's Step when its cached wake is due or it was
// poked, each due channel's bank controllers in channel order, then the
// clock advance. Skipping, the advance jumps straight to the next cycle
// at which the front end or a channel may change state, which elides
// only cycles in which every Step and tick would have been a no-op.
func (s *Session) step() error {
	cfg := &s.sys.cfg
	fe := s.fe
	now := s.now
	if now > cfg.MaxCycles {
		return &fault.DeadlockError{
			Cycle:   now,
			Stalled: now - fe.lastProgress,
			Dump:    fmt.Sprintf("pvaunit: MaxCycles=%d exhausted\n%s", cfg.MaxCycles, fe.debugString()),
		}
	}
	// The watchdog compares spans, never lastProgress+wd: that sum wraps
	// for windows near 2^64 and would fire on a healthy run.
	if wd := cfg.WatchdogCycles; wd > 0 && now-fe.lastProgress > wd {
		return &fault.DeadlockError{Cycle: now, Stalled: now - fe.lastProgress, Dump: fe.debugString()}
	}
	strict := cfg.DisableIdleSkip
	// Before its cached wake, and absent an outside event, the front
	// end's Step is a provable no-op and is not called at all. The
	// strict loop steps it every cycle and needs no wake.
	if strict || now >= s.feWake || fe.Poked() {
		if err := fe.Step(now); err != nil {
			return err
		}
		if !strict {
			s.feWake = fe.NextWake(now + 1)
		}
	}
	for ch := range fe.chans {
		q := &fe.chans[ch]
		if !strict && q.due > now {
			continue
		}
		if err := q.tick(now, strict); err != nil {
			return err
		}
	}
	now++
	if !strict && fe.remaining > 0 {
		if next := s.nextWake(now); next > now {
			// Never jump past an armed watchdog's deadline, nor past the
			// backstop: a stuck machine reports no wake at all, and the
			// strict loop would raise the failure on exactly that cycle.
			if wd := cfg.WatchdogCycles; wd > 0 && next-fe.lastProgress-1 > wd {
				next = fe.lastProgress + wd + 1
			}
			if next > cfg.MaxCycles {
				next = cfg.MaxCycles + 1
			}
			now = next
		}
	}
	s.now = now
	return nil
}

// nextWake returns the earliest cycle >= now at which the front end or
// any channel's controllers may change state. The wakes are current:
// due channels refreshed theirs in the step that just ran, and skipped
// channels' wakes still lie in the future by construction.
func (s *Session) nextWake(now uint64) uint64 {
	if s.fe.Poked() {
		return now // a controller just settled a transaction line
	}
	next := s.feWake
	for ch := range s.fe.chans {
		next = min(next, s.fe.chans[ch].due)
		if next <= now {
			return now
		}
	}
	return max(next, now)
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
