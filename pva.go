// Package pva is a cycle-level reproduction of "Design of a Parallel
// Vector Access Unit for SDRAM Memory Systems" (Mathew, McKee, Carter,
// Davis; HPCA 2000): a memory controller back end that gathers and
// scatters base-stride vectors by broadcasting vector commands to
// per-bank controllers, each of which computes its own subvector with
// the closed-form FirstHit/NextHit mathematics instead of expanding the
// vector serially.
//
// The package exposes four memory systems behind one interface —
// the PVA SDRAM prototype, an idealized PVA SRAM, a conventional
// cache-line interleaved serial SDRAM, and a pipelined serial gathering
// SDRAM — plus the paper's six evaluation kernels, the full experiment
// harness that regenerates every figure, and the conclusion's
// vector-indirect and bit-reversal extensions.
//
// Quick start:
//
//	sys, _ := pva.NewSystem(pva.DefaultConfig())
//	res, _ := sys.Run(pva.Trace{Cmds: []pva.VectorCmd{{
//		Op: pva.Read,
//		V:  pva.Vector{Base: 0, Stride: 19, Length: 32},
//	}}})
//	fmt.Println(res.Cycles, res.ReadData[0])
//
// Addresses and strides are in 32-bit machine words, as in the paper.
package pva

import (
	"fmt"
	"strings"

	"pva/internal/addr"
	"pva/internal/addrmap"
	"pva/internal/bankctl"
	"pva/internal/baseline"
	"pva/internal/core"
	"pva/internal/dramtech"
	"pva/internal/fault"
	"pva/internal/memsys"
	"pva/internal/pvaunit"
)

// Vector is a base-stride vector command <Base, Stride, Length>:
// Length elements at word addresses Base, Base+Stride, Base+2*Stride...
type Vector = core.Vector

// Re-exported command/trace/result types shared by every memory system.
type (
	// VectorCmd is one vector bus operation with its dataflow.
	VectorCmd = memsys.VectorCmd
	// Trace is a program-order command sequence.
	Trace = memsys.Trace
	// Result reports a run: cycles, gathered lines, statistics.
	Result = memsys.Result
	// Stats are the common activity counters.
	Stats = memsys.Stats
	// System is the interface all four memory systems implement.
	System = memsys.System
	// Snapshotter is implemented by Systems supporting cheap
	// copy-on-write checkpoint, clone, and rewind (all four simulated
	// systems; the functional Reference does not keep checkpoints).
	// Type-assert a System to reach it:
	//
	//	cp := sys.(pva.Snapshotter).Snapshot()
	//	clone, _ := cp.NewSystem() // independent warm-started copy
	Snapshotter = memsys.Snapshotter
	// Checkpoint is the opaque immutable image Snapshot captures;
	// NewSystem clones from it, Restore rewinds to it.
	Checkpoint = memsys.Checkpoint
	// Op distinguishes reads from writes.
	Op = memsys.Op
)

// Read and Write are the two vector operations.
const (
	Read  = memsys.Read
	Write = memsys.Write
)

// FaultPlan describes a run's deterministic fault injection: seed-driven
// transient bit flips corrected by SEC-DED ECC on the SDRAM read path,
// dropped vector-bus broadcasts recovered by bounded retry-with-backoff,
// and hard-faulted bank controllers whose elements re-route through a
// serial fallback path. The zero value disables every fault mechanism
// and costs nothing.
type FaultPlan = fault.Plan

// Sentinel errors for the structured failure modes fault injection can
// surface from System.Run; match with errors.Is.
var (
	// ErrDeadlock: the forward-progress watchdog fired (see
	// Config.WatchdogCycles); the error carries a diagnostic dump.
	ErrDeadlock = fault.ErrDeadlock
	// ErrUncorrectable: a read stayed dirty past the ECC replay budget.
	ErrUncorrectable = fault.ErrUncorrectable
	// ErrBusFault: a broadcast stayed NACKed past the retry budget.
	ErrBusFault = fault.ErrBusFault
)

// Config selects the PVA memory-system parameters. The zero value of
// any field falls back to the paper's prototype (Section 5.1).
type Config struct {
	Banks     uint32 // word-interleaved banks M per channel (16)
	LineWords uint32 // cache line length in words (32)

	// Channels replicates the PVA back end (bus + bank controllers)
	// across that many memory channels, a power of two; 0 or 1 is the
	// paper's single-channel prototype.
	Channels uint32
	// AddrMap names the address-decode function splitting word addresses
	// into (channel, bank, bank word): "word" (default; the paper's word
	// interleave), "line" (line-granularity channel interleave), "xor"
	// (XOR-permutation bank hash), or a "tuned:<mask,mask,...>" XOR-hash
	// spec with one bank-word parity mask per bank bit — typically the
	// winner of an Autotune search (see ParseAddrMap).
	AddrMap string

	// SDRAM device geometry and timing.
	InternalBanks   uint32 // internal banks per device (4)
	RowWords        uint32 // row length in words (512)
	Rows            uint32 // rows per internal bank (8192)
	TRCD            uint64 // activate-to-access latency (2)
	CL              uint64 // CAS latency (2)
	TRP             uint64 // precharge latency (2)
	RefreshInterval uint64 // cycles between refresh obligations (0: off, as the paper assumes)
	TRFC            uint64 // refresh cycle time (used when RefreshInterval > 0)

	VCWindow int // vector contexts per bank controller (4)

	// Tech selects the device back end: "sdram" (default; the paper's
	// device), "salp" (subarray-level parallelism: per-subarray row state
	// inside each internal bank, overlapped activates), or "pcm"
	// (phase-change memory: partition-level parallelism, asymmetric
	// read/write timing, no refresh). "" means "sdram"; the zero Config
	// is bit-identical to the paper's prototype.
	Tech string
	// SubarraysPerBank sets the subarrays per internal bank for
	// Tech="salp" (power of two; 0 or 1 degenerate to plain SDRAM row
	// behavior, cycle-identical to Tech="sdram").
	SubarraysPerBank uint32
	// Partitions sets the partitions per internal bank for Tech="pcm"
	// (power of two; 0 means 1).
	Partitions uint32

	// Policy selects the Scheduling Policy Unit: "paper" (default) or
	// "fcfs" (row operations fill only cycles no access can use).
	Policy string
	// RowPolicy selects row management: "manage-row" (default),
	// "closed-page", "open-page", "hotrow" (Alpha 21174-style, one
	// history per bank controller and row-state unit).
	RowPolicy string

	// DisableIdleSkip forces the strict tick-every-cycle simulation loop
	// instead of event-driven idle-cycle skipping. Cycle counts are
	// bit-identical either way; the toggle exists for cross-checking and
	// benchmarking the skip machinery itself.
	DisableIdleSkip bool

	// FaultPlan selects deterministic fault injection for every run on
	// the system. The zero value injects nothing and is guaranteed
	// bit-identical (cycles and data) to a faultless build.
	FaultPlan FaultPlan

	// WatchdogCycles arms the forward-progress watchdog: a run making no
	// protocol progress for this many cycles returns an error matching
	// ErrDeadlock, with a diagnostic dump, instead of spinning until the
	// MaxCycles backstop. 0 disables the watchdog.
	WatchdogCycles uint64
}

// DefaultConfig returns the paper's prototype parameters.
func DefaultConfig() Config {
	return Config{
		Banks: 16, LineWords: 32,
		InternalBanks: 4, RowWords: 512, Rows: 8192,
		TRCD: 2, CL: 2, TRP: 2,
		VCWindow: 4,
	}
}

func (c Config) fill() Config {
	d := DefaultConfig()
	if c.Banks == 0 {
		c.Banks = d.Banks
	}
	if c.LineWords == 0 {
		c.LineWords = d.LineWords
	}
	if c.Channels == 0 {
		c.Channels = 1
	}
	if c.InternalBanks == 0 {
		c.InternalBanks = d.InternalBanks
	}
	if c.RowWords == 0 {
		c.RowWords = d.RowWords
	}
	if c.Rows == 0 {
		c.Rows = d.Rows
	}
	if c.TRCD == 0 {
		c.TRCD = d.TRCD
	}
	if c.CL == 0 {
		c.CL = d.CL
	}
	if c.TRP == 0 {
		c.TRP = d.TRP
	}
	if c.VCWindow == 0 {
		c.VCWindow = d.VCWindow
	}
	return c
}

// Validate checks the configuration up front, before any system is
// built: interleaving requires power-of-two bank, channel, and line-word
// counts, the transaction-complete board is a wired-OR of at most 64
// lines per channel, the policy names must be known, the fault plan's
// rates and dead-bank indices must be in range, and the bank
// controllers must be able to run it (see
// pvaunit.ValidateLimits: VCWindow and RefreshInterval). Tech "pcm"
// runs on its preset timing, so it rejects a TRCD, CL or TRP other than
// the paper's and any refresh setting instead of ignoring them.
// Zero-valued fields are filled with the paper's defaults first, so
// DefaultConfig() and the zero Config both validate.
func (c Config) Validate() error {
	c = c.fill()
	if c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("pva: Banks=%d is not a power of two", c.Banks)
	}
	if c.Banks > 64 {
		return fmt.Errorf("pva: Banks=%d exceeds the 64-line transaction-complete board", c.Banks)
	}
	if c.Channels&(c.Channels-1) != 0 {
		return fmt.Errorf("pva: Channels=%d is not a power of two", c.Channels)
	}
	if c.LineWords&(c.LineWords-1) != 0 {
		return fmt.Errorf("pva: LineWords=%d is not a power of two", c.LineWords)
	}
	if _, err := addrmap.Parse(c.AddrMap, c.Channels, c.Banks, c.LineWords); err != nil {
		return fmt.Errorf("pva: %w", err)
	}
	if err := dramtech.ValidateSelection(c.Tech, c.SubarraysPerBank, c.Partitions); err != nil {
		return fmt.Errorf("pva: %w", err)
	}
	if dropped := c.droppedBy(false); c.Tech == "pcm" && len(dropped) > 0 {
		return fmt.Errorf("pva: tech \"pcm\" runs on its preset timing and would ignore %s", strings.Join(dropped, ", "))
	}
	if _, err := bankctl.ParsePolicy(c.Policy, c.RowPolicy); err != nil {
		return fmt.Errorf("pva: %w", err)
	}
	if err := c.FaultPlan.Validate(c.Channels, c.Banks); err != nil {
		return fmt.Errorf("pva: %w", err)
	}
	if err := pvaunit.ValidateLimits(c.VCWindow, c.timing()); err != nil {
		return fmt.Errorf("pva: %w", err)
	}
	return nil
}

// droppedBy names the set fields of the filled configuration that a
// system running its own device timing would silently drop. PCM runs
// on its preset timing: it drops a TRCD, CL or TRP other than the
// paper's and any refresh setting. The rowless PVA-SRAM system (sram)
// runs on the SRAM preset, so it drops those too, and any device
// selection.
func (c Config) droppedBy(sram bool) []string {
	d := DefaultConfig()
	var dropped []string
	add := func(set bool, format string, v any) {
		if set {
			dropped = append(dropped, fmt.Sprintf(format, v))
		}
	}
	add(sram && c.Tech != "" && c.Tech != "sdram", "Tech=%q", c.Tech)
	add(sram && c.SubarraysPerBank > 1, "SubarraysPerBank=%d", c.SubarraysPerBank)
	add(sram && c.Partitions > 1, "Partitions=%d", c.Partitions)
	add(c.TRCD != d.TRCD, "TRCD=%d", c.TRCD)
	add(c.CL != d.CL, "CL=%d", c.CL)
	add(c.TRP != d.TRP, "TRP=%d", c.TRP)
	add(c.RefreshInterval != 0, "RefreshInterval=%d", c.RefreshInterval)
	add(c.TRFC != 0, "TRFC=%d", c.TRFC)
	return dropped
}

// timing is the device timing the configuration asks for.
func (c Config) timing() dramtech.Timing {
	return dramtech.Timing{
		TRCD: c.TRCD, CL: c.CL, TRP: c.TRP,
		RefreshInterval: c.RefreshInterval, TRFC: c.TRFC,
	}
}

// toInternal validates the configuration and builds the PVA-SDRAM
// system's internal configuration, back end included.
func (c Config) toInternal() (pvaunit.Config, error) {
	if err := c.Validate(); err != nil {
		return pvaunit.Config{}, err
	}
	c = c.fill()
	sg, err := addr.NewSDRAMGeom(c.InternalBanks, c.RowWords, c.Rows)
	if err != nil {
		return pvaunit.Config{}, err
	}
	dec, err := addrmap.Parse(c.AddrMap, c.Channels, c.Banks, c.LineWords)
	if err != nil {
		return pvaunit.Config{}, err
	}
	pol, err := bankctl.ParsePolicy(c.Policy, c.RowPolicy)
	if err != nil {
		return pvaunit.Config{}, fmt.Errorf("pva: %w", err)
	}
	cfg := pvaunit.Config{
		Banks:           c.Banks,
		Channels:        c.Channels,
		Decoder:         dec,
		LineWords:       c.LineWords,
		SGeom:           sg,
		Timing:          c.timing(),
		VCWindow:        c.VCWindow,
		Policy:          pol,
		DisableIdleSkip: c.DisableIdleSkip,
		Fault:           c.FaultPlan,
		WatchdogCycles:  c.WatchdogCycles,
	}
	if err := pvaunit.ApplyTech(&cfg, c.Tech, c.SubarraysPerBank, c.Partitions); err != nil {
		return pvaunit.Config{}, fmt.Errorf("pva: %w", err)
	}
	return cfg, nil
}

// sramInternal is toInternal for the PVA-SRAM comparison system: the
// configured controllers over the rowless SRAM back end. It rejects the
// fields that system would drop (see droppedBy) instead of ignoring
// them.
func (c Config) sramInternal() (pvaunit.Config, error) {
	if dropped := c.fill().droppedBy(true); len(dropped) > 0 {
		return pvaunit.Config{}, fmt.Errorf("pva: the PVA-SRAM system has no rows and would ignore %s", strings.Join(dropped, ", "))
	}
	cfg, err := c.toInternal()
	if err != nil {
		return pvaunit.Config{}, err
	}
	cfg.Tech = dramtech.Spec{Backend: dramtech.BackendSRAM}
	return cfg, nil
}

// NewSystem returns the PVA SDRAM memory system.
func NewSystem(c Config) (System, error) {
	cfg, err := c.toInternal()
	if err != nil {
		return nil, err
	}
	return pvaunit.New(cfg)
}

// NewSRAMSystem returns the idealized PVA SRAM comparison system: the
// same parallel access scheme over single-cycle static memory.
func NewSRAMSystem(c Config) (System, error) {
	cfg, err := c.sramInternal()
	if err != nil {
		return nil, err
	}
	return pvaunit.New(cfg)
}

// NewCacheLineSerial returns the conventional cache-line interleaved
// serial SDRAM baseline (20-cycle line fills, no gathering).
func NewCacheLineSerial() System { return baseline.NewCacheLineSerialChannels(1) }

// NewGatheringSerial returns the pipelined serial gathering SDRAM
// baseline (gathers, but expands vectors one element per cycle).
func NewGatheringSerial() System { return baseline.NewGatheringSerialChannels(nil) }

// Reference returns the functional (zero-time) executor used to verify
// the cycle-level systems.
func Reference() System { return memsys.NewReference() }

// ParseAddrMap validates an address-decoder spec against a channel
// count and returns its canonical form ("word", "line", "xor", or the
// full "tuned:0x...,..." mask list) on the paper's bank organization.
// Every decoder-selection path — Config.AddrMap, the sweep harness,
// both CLIs — accepts exactly the specs this accepts, and an unknown
// spec is rejected with the valid forms listed. channels 0 means the
// single-channel prototype.
func ParseAddrMap(spec string, channels uint32) (string, error) {
	if channels == 0 {
		channels = 1
	}
	d := DefaultConfig()
	canon, err := addrmap.Canonical(spec, channels, d.Banks, d.LineWords)
	if err != nil {
		return "", fmt.Errorf("pva: %w", err)
	}
	return canon, nil
}
