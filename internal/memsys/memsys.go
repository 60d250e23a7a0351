// Package memsys defines the contract shared by every memory system the
// evaluation compares: vector command traces, execution results, run
// statistics, and a functional reference memory used to verify that each
// cycle-level model moves the right data.
//
// The paper's Section 6.2 methodology drives each memory system with the
// vector requests an infinitely fast CPU would generate: VEC_READ /
// VEC_WRITE commands of one cache line (32 elements) each, at most eight
// outstanding, writes dependent on the reads of their loop iteration.
// Trace captures exactly that, including the dataflow (a write command
// computes its line from the read lines it depends on), so that a system
// under test must both *time* and *move* the data correctly.
package memsys

import (
	"fmt"

	"pva/internal/core"
)

// Op distinguishes vector reads from vector writes.
type Op uint8

const (
	// Read gathers strided words into a dense line.
	Read Op = iota
	// Write scatters a dense line to strided words.
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// CmdKind distinguishes the two access-pattern shapes a vector command
// can carry: the paper's base-stride vectors and the Section 7
// vector-indirect extension's explicit index lists.
type CmdKind uint8

const (
	// KindStrided is a base-stride command: element i at V.Addr(i).
	KindStrided CmdKind = iota
	// KindIndexed is an indexed gather/scatter: element i at
	// V.Base + Idx[i].
	KindIndexed
)

// String implements fmt.Stringer.
func (k CmdKind) String() string {
	switch k {
	case KindStrided:
		return "strided"
	case KindIndexed:
		return "indexed"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// VectorCmd is one vector bus command: a base-stride vector or an
// explicit index list, plus the dataflow needed to execute it.
type VectorCmd struct {
	Op Op
	V  core.Vector

	// Idx, when non-nil, makes this an indexed (vector-indirect)
	// command: element i lives at word address V.Base + Idx[i], the
	// Section 7 scatter/gather shape. An indexed command must carry
	// V.Stride == 0 and exactly V.Length indices; V.Length keeps
	// driving every piece of sizing logic, so the strided machinery is
	// untouched by the kind. The slice is read by the memory system
	// until the command retires — callers must not mutate it in flight.
	Idx []uint32

	// DependsOn lists indices of earlier commands in the trace whose
	// completion must precede this command's issue. For writes these are
	// the reads whose data feeds Compute; for reads they encode serial
	// dependences such as tridiag's recurrence.
	DependsOn []int

	// Compute produces the dense line a write scatters, given the lines
	// of DependsOn in order: gathered data for read dependencies, the
	// computed line for write dependencies (how loop-carried values such
	// as tridiag's recurrence flow between iterations). nil for reads;
	// nil for writes whose Data is preset.
	Compute func(deps [][]uint32) []uint32

	// Data is the preset dense line for writes without a Compute.
	Data []uint32
}

// Kind reports the command's access-pattern shape.
func (c *VectorCmd) Kind() CmdKind {
	if c.Idx != nil {
		return KindIndexed
	}
	return KindStrided
}

// Indexed reports whether the command carries an explicit index list.
func (c *VectorCmd) Indexed() bool { return c.Idx != nil }

// Addr returns the word address of element i under either kind:
// V.Base + Idx[i] for indexed commands, V.Addr(i) for base-stride.
// Like core.Vector.Addr, the sum wraps modulo 2^32.
func (c *VectorCmd) Addr(i uint32) uint32 {
	if c.Idx != nil {
		return c.V.Base + c.Idx[i]
	}
	return c.V.Addr(i)
}

// Trace is a program-order sequence of vector commands.
type Trace struct {
	Cmds []VectorCmd
}

// Validate checks structural sanity: dependency indices in range and
// strictly earlier, writes with exactly one data source, lengths positive.
func (t Trace) Validate() error {
	for i, c := range t.Cmds {
		if err := ValidateCmd(c, i); err != nil {
			return err
		}
	}
	return nil
}

// ValidateCmd checks one command as the i-th of a sequence: length
// positive, dependencies strictly earlier than i, writes with exactly
// one data source. Streaming front ends use it to validate commands at
// admission, where i counts the commands already accepted.
func ValidateCmd(c VectorCmd, i int) error {
	if c.V.Length == 0 {
		return fmt.Errorf("memsys: cmd %d has zero length", i)
	}
	if c.Idx != nil {
		if c.V.Stride != 0 {
			return fmt.Errorf("memsys: indexed cmd %d carries stride %d (must be 0)", i, c.V.Stride)
		}
		if uint32(len(c.Idx)) != c.V.Length {
			return fmt.Errorf("memsys: indexed cmd %d has %d indices, want %d", i, len(c.Idx), c.V.Length)
		}
	}
	for _, d := range c.DependsOn {
		if d < 0 || d >= i {
			return fmt.Errorf("memsys: cmd %d depends on %d (out of order)", i, d)
		}
	}
	switch c.Op {
	case Read:
		if c.Compute != nil || c.Data != nil {
			return fmt.Errorf("memsys: read cmd %d carries write data", i)
		}
	case Write:
		// Exactly one data source: Compute or preset Data, not both.
		if c.Compute != nil && c.Data != nil {
			return fmt.Errorf("memsys: write cmd %d carries both Compute and preset Data", i)
		}
		if c.Compute == nil && uint32(len(c.Data)) != c.V.Length {
			return fmt.Errorf("memsys: write cmd %d has %d data words, want %d", i, len(c.Data), c.V.Length)
		}
	default:
		return fmt.Errorf("memsys: cmd %d has unknown op %d", i, c.Op)
	}
	return nil
}

// Stats are the counters every system reports; systems leave counters at
// zero when the concept does not apply (an SRAM system has no row
// activity, a serial system no parallel banks).
type Stats struct {
	BusBusyCycles    uint64 `json:"bus_busy_cycles"`   // cycles the shared bus carried a command or data
	TurnaroundCycles uint64 `json:"turnaround_cycles"` // bus-polarity turnaround cycles inserted
	SDRAMReads       uint64 `json:"sdram_reads"`       // word reads issued to memory devices
	SDRAMWrites      uint64 `json:"sdram_writes"`      // word writes issued to memory devices
	Activates        uint64 `json:"activates"`         // row activate operations
	Precharges       uint64 `json:"precharges"`        // precharge operations (incl. auto-precharge)
	RowHits          uint64 `json:"row_hits"`          // reads/writes that hit an already-open row
	LineFills        uint64 `json:"line_fills"`        // whole cache-line fills (cache-line serial system)

	// Technology-model counters (zero on the plain SDRAM back end).
	SubarrayHits    uint64 `json:"subarray_hits"`    // accesses overlapping another open subarray/partition in the same bank
	RowConflicts    uint64 `json:"row_conflicts"`    // precharges forced by a conflicting row
	PartitionStalls uint64 `json:"partition_stalls"` // scheduler cycles stalled on PCM write occupancy

	// Latency split: total read command-to-data cycles and total write
	// occupancy cycles, exposing asymmetric-technology (PCM) write cost.
	ReadLatencyCycles  uint64 `json:"read_latency_cycles"`
	WriteLatencyCycles uint64 `json:"write_latency_cycles"`

	// Indexed-command counters (all zero on a purely base-stride
	// trace).
	IndexBusCycles  uint64 `json:"index_bus_cycles"` // bus data cycles spent broadcasting index lists
	IndexedElements uint64 `json:"indexed_elements"` // elements moved by indexed commands
	// IndexedMaxBankClaim sums, over every (indexed command, channel)
	// broadcast, the largest per-bank element claim — the serialization
	// floor of that broadcast. Dividing by IndexedElements yields the
	// claim-imbalance ratio (1/Banks is perfectly balanced, 1 is fully
	// serialized on one bank).
	IndexedMaxBankClaim uint64 `json:"indexed_max_bank_claim"`

	// Fault-injection counters (all zero when the run's fault.Plan is
	// the zero value).
	CorrectedECC     uint64 `json:"corrected_ecc"`     // single-bit read errors corrected by SEC-DED
	UncorrectedECC   uint64 `json:"uncorrected_ecc"`   // double-bit read errors detected (each triggers a replay)
	ECCRetries       uint64 `json:"ecc_retries"`       // device-level read replays after a detected double flip
	BusNACKs         uint64 `json:"bus_nacks"`         // vector-bus broadcasts dropped/NACKed
	BusRetries       uint64 `json:"bus_retries"`       // broadcasts delivered on a retransmission
	DegradedElements uint64 `json:"degraded_elements"` // elements serviced by the dead-bank serial fallback
}

// Merge accumulates another Stats into s, counter by counter. It is the
// one aggregation everyone uses — per-channel counters into run totals,
// per-device counters into channel counters, per-point counters into
// sweep summaries — so a new counter added to Stats is folded everywhere
// by updating this method alone.
func (s *Stats) Merge(o Stats) {
	s.BusBusyCycles += o.BusBusyCycles
	s.TurnaroundCycles += o.TurnaroundCycles
	s.SDRAMReads += o.SDRAMReads
	s.SDRAMWrites += o.SDRAMWrites
	s.Activates += o.Activates
	s.Precharges += o.Precharges
	s.RowHits += o.RowHits
	s.LineFills += o.LineFills
	s.SubarrayHits += o.SubarrayHits
	s.RowConflicts += o.RowConflicts
	s.PartitionStalls += o.PartitionStalls
	s.ReadLatencyCycles += o.ReadLatencyCycles
	s.WriteLatencyCycles += o.WriteLatencyCycles
	s.IndexBusCycles += o.IndexBusCycles
	s.IndexedElements += o.IndexedElements
	s.IndexedMaxBankClaim += o.IndexedMaxBankClaim
	s.CorrectedECC += o.CorrectedECC
	s.UncorrectedECC += o.UncorrectedECC
	s.ECCRetries += o.ECCRetries
	s.BusNACKs += o.BusNACKs
	s.BusRetries += o.BusRetries
	s.DegradedElements += o.DegradedElements
}

// Result of executing a trace on a memory system.
type Result struct {
	// Cycles is the total execution time: from the first command issue to
	// the completion of the last transaction.
	Cycles uint64
	// ReadData holds, for each read command (indexed like Trace.Cmds,
	// nil entries for writes), the dense gathered line.
	ReadData [][]uint32
	Stats    Stats
	// ChannelStats breaks Stats down per memory channel (one entry per
	// channel for the multi-channel PVA systems; nil for systems with no
	// channel concept).
	ChannelStats []Stats
}

// System is a memory system that executes vector command traces.
type System interface {
	// Name identifies the system in reports ("pva-sdram", ...).
	Name() string
	// Run executes the trace from a cold start and reports timing, the
	// gathered read data, and statistics. Implementations must apply the
	// trace's writes to their backing store so callers can audit final
	// memory contents via Peek. A system must not modify the trace it
	// runs — neither a command nor any slice it carries — so one trace
	// can be run on many systems.
	Run(t Trace) (Result, error)
	// Peek returns the current value of a word in the system's backing
	// store (after Run, the final memory image).
	Peek(a uint32) uint32
}

// Checkpoint is an opaque copy-on-write image of a System's memory and
// configuration, captured by Snapshotter.Snapshot. Checkpoints are
// immutable and safe to share across goroutines.
type Checkpoint interface {
	// NewSystem returns a fresh, fully independent System warm-started
	// from the checkpoint: same configuration, memory contents restored
	// to the captured image, nothing aliased mutably with the source
	// system or with sibling clones.
	NewSystem() (System, error)
}

// Snapshotter is implemented by Systems supporting cheap checkpoint,
// clone, and rewind over a copy-on-write store. The sweep harness uses
// it to warm-start each cell from a post-construction checkpoint
// instead of rebuilding the system.
type Snapshotter interface {
	System
	// Snapshot captures the system's current memory image and
	// configuration. Must be called between runs, never mid-cycle.
	Snapshot() Checkpoint
	// Restore rewinds the system's memory to a checkpoint previously
	// taken from this system (or one of its clones). Cached session
	// hardware is kept; only the memory image rewinds.
	Restore(Checkpoint) error
}

// Fill is the deterministic initial content of every word of every
// memory system and of the reference memory: systems lazily materialize
// Fill(addr) for never-written words, so all models agree on cold
// contents without shipping initialization lists around.
func Fill(a uint32) uint32 {
	x := a*2654435761 + 0x9e3779b9
	x ^= x >> 16
	return x
}
