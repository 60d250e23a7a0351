// Experiment-facing API: kernels, sweeps and figure rendering, re-
// exported from the internal harness so downstream users can regenerate
// the paper's evaluation programmatically.

package pva

import (
	"fmt"
	"io"
	"time"

	"pva/internal/dramtech"
	"pva/internal/harness"
	"pva/internal/kernels"
)

// Kernel is one of the paper's evaluation workloads (Table 2).
type Kernel = kernels.Kernel

// KernelParams selects stride, vector length and relative alignment.
type KernelParams = kernels.Params

// SweepPoint is one measured cell: kernel, stride, alignment, system,
// channel count and pva-sdram back end.
type SweepPoint = harness.Point

// SystemKind enumerates the four memory systems of the evaluation.
type SystemKind = harness.SystemKind

// The four memory systems of Section 6.1.
const (
	PVASDRAM        = harness.PVASDRAM
	CacheLineSerial = harness.CacheLineSerial
	GatheringSerial = harness.GatheringSerial
	PVASRAM         = harness.PVASRAM
)

// Kernels returns the eight access patterns of the evaluation: copy,
// copy2, saxpy, scale, scale2, swap, tridiag, vaxpy.
func Kernels() []Kernel { return kernels.All() }

// IndexedKernels returns the indexed-command workloads — gather,
// scatter and CSR spmv — built on the first-class indexed command kind.
// They are separate from Kernels() so the paper's evaluation set stays
// pinned.
func IndexedKernels() []Kernel { return kernels.Indexed() }

// KernelNames lists every known kernel name: the strided evaluation set
// followed by the indexed workloads.
func KernelNames() []string { return kernels.Names() }

// KernelByName looks a kernel up by name, in the strided evaluation set
// and the indexed workloads.
func KernelByName(name string) (Kernel, error) { return kernels.ByName(name) }

// PaperParams returns the Section 6.2 defaults (1024-element vectors on
// the prototype machine) for a stride and alignment in [0, 5).
func PaperParams(stride uint32, alignment int) KernelParams {
	return kernels.PaperParams(stride, alignment)
}

// AlignmentCount is the number of relative vector alignments swept.
const AlignmentCount = kernels.Alignments

// AlignmentName names an alignment scheme.
func AlignmentName(a int) string { return kernels.AlignmentName(a) }

// PaperStrides returns the strides of Figures 7-10: 1, 2, 4, 8, 16, 19.
func PaperStrides() []uint32 { return harness.PaperStrides() }

// RunKernel builds the kernel's trace for the given parameters and runs
// it on a fresh instance of the chosen system.
func RunKernel(kind SystemKind, kernel string, p KernelParams) (SweepPoint, error) {
	return RunKernelWithOptions(kind, kernel, p, SweepOptions{})
}

// RunKernelWithOptions is RunKernel with sweep options applied (channel
// count, address decoder, verification, failure policy); o.Elements is
// overridden by the kernel parameters. Parameters no trace can be built
// from (a zero stride, an alignment outside [0, 5), a vector length
// that is not a whole number of commands) are an error, returned before
// any system runs. A panic while building the trace or simulating it is
// returned as an error naming the cell.
func RunKernelWithOptions(kind SystemKind, kernel string, p KernelParams, o SweepOptions) (SweepPoint, error) {
	k, err := kernels.ByName(kernel)
	if err != nil {
		return SweepPoint{}, err
	}
	if err := o.Validate(); err != nil {
		return SweepPoint{}, err
	}
	r := o.runner()
	r.Elements = p.Elements
	if err := r.Params(p.Stride, p.Alignment).Validate(); err != nil {
		return SweepPoint{}, err
	}
	return r.RunPoint(k, p.Stride, p.Alignment, kind)
}

// Sweep measures kernels x strides x alignments x systems on the paper's
// machine, serially. Nil slices select the paper's full sets. Verify
// replays every point against the functional reference.
func Sweep(kernelNames []string, strides []uint32, systems []SystemKind, verify bool) ([]SweepPoint, error) {
	r := harness.Runner{Verify: verify}
	return r.Sweep(Grid{Kernels: kernelNames, Strides: strides, Systems: systems}, 1)
}

// Grid selects a sweep's cells: kernels x strides x the five alignments
// x systems x channel counts x pva-sdram back ends. A nil axis takes its
// default: every strided kernel, the paper's strides, all four systems,
// and the SweepOptions' own channel count and back end. Techs names back
// ends by the labels the reports print: "sdram", "salp-<subarrays>",
// "pcm-<partitions>p"; the other systems run once per channel count.
type Grid = harness.Grid

// SweepOptions tunes SweepWithOptions beyond the grid selection.
type SweepOptions struct {
	// Elements per application vector; 0 means the paper's 1024.
	Elements uint32
	// Verify replays every point against the functional reference.
	Verify bool
	// Workers bounds the sweep's worker pool: 0 uses one goroutine per
	// CPU, 1 forces the serial engine, and any other value caps the pool
	// at that many goroutines. The point order is identical either way —
	// each worker warm-starts cells from a private copy-on-write
	// checkpoint, and results land at their planned index.
	Workers int
	// Channels selects multi-channel system variants; 0 or 1 is the
	// paper's single-channel configuration. A Grid's Channels axis
	// overrides it.
	Channels uint32
	// AddrMap names the address decoder ("word", "line", "xor", or a
	// "tuned:<mask,...>" XOR-hash spec); empty means the paper's word
	// interleave.
	AddrMap string
	// Fault selects deterministic fault injection for the PVA systems in
	// the sweep; the zero value injects nothing. The serial baselines
	// model no fault machinery and ignore it.
	Fault FaultPlan
	// Watchdog arms the PVA forward-progress watchdog, in cycles
	// (0: disabled).
	Watchdog uint64
	// Tech selects the PVA SDRAM system's device back end ("sdram",
	// "salp", "pcm"; empty: sdram). The serial baselines and the PVA
	// SRAM system ignore it. A Grid's Techs axis overrides it, with
	// Subarrays and Partitions.
	Tech string
	// Subarrays sets subarrays per internal bank for Tech="salp".
	Subarrays uint32
	// Partitions sets partitions per internal bank for Tech="pcm".
	Partitions uint32
	// CellTimeout is the per-cell wall-clock deadline for fault-isolated
	// and resumable sweeps, layered above the simulated-cycle watchdog
	// (0: no deadline). A timed-out cell's warm systems are discarded.
	CellTimeout time.Duration
	// Retries re-attempts a failing cell that many times (each on fresh
	// systems) before quarantining it; 0 means a single attempt.
	Retries int
	// RetryBackoff is the sleep before the first retry, doubled each
	// further attempt (0: retry immediately).
	RetryBackoff time.Duration
}

// Validate rejects option combinations no sweep can honor. The plain
// Sweep/SweepWithOptions entry points tolerate the zero value without
// calling it; the CLIs call it (through ValidateGrid for a sweep) on
// flag-built options.
func (o SweepOptions) Validate() error {
	if o.CellTimeout < 0 {
		return fmt.Errorf("pva: CellTimeout %v is negative", o.CellTimeout)
	}
	if o.Retries < 0 {
		return fmt.Errorf("pva: Retries %d is negative", o.Retries)
	}
	if o.RetryBackoff < 0 {
		return fmt.Errorf("pva: RetryBackoff %v is negative", o.RetryBackoff)
	}
	if o.RetryBackoff > 0 && o.Retries == 0 {
		return fmt.Errorf("pva: RetryBackoff %v without Retries has no effect", o.RetryBackoff)
	}
	if o.Workers < 0 {
		return fmt.Errorf("pva: Workers %d is negative", o.Workers)
	}
	if _, err := ParseAddrMap(o.AddrMap, o.Channels); err != nil {
		return err
	}
	return dramtech.ValidateSelection(o.Tech, o.Subarrays, o.Partitions)
}

// ValidateGrid is Validate plus the grid's axes: it rejects unknown
// kernels, systems and back ends, strides and vector lengths no kernel
// trace can be built at, channel counts the decoder cannot split, and
// values an axis lists twice. Every sweep runs the grid checks before
// its first cell.
func ValidateGrid(g Grid, o SweepOptions) error {
	if err := o.Validate(); err != nil {
		return err
	}
	return o.runner().Validate(g)
}

func (o SweepOptions) runner() harness.Runner {
	return harness.Runner{
		Elements:     o.Elements,
		Verify:       o.Verify,
		Channels:     o.Channels,
		AddrMap:      o.AddrMap,
		Fault:        o.Fault,
		Watchdog:     o.Watchdog,
		Tech:         o.Tech,
		Subarrays:    o.Subarrays,
		Partitions:   o.Partitions,
		CellTimeout:  o.CellTimeout,
		Retries:      o.Retries,
		RetryBackoff: o.RetryBackoff,
	}
}

// SweepWithOptions measures a grid's cells with explicit engine
// options, failing fast: the first failing cell aborts the sweep with
// an error naming it.
func SweepWithOptions(g Grid, o SweepOptions) ([]SweepPoint, error) {
	return o.runner().Sweep(g, o.Workers)
}

// SweepOutcome is a fault-isolated sweep's result: the full grid with
// per-cell completion, the quarantine manifest, and the journal-replay
// count.
type SweepOutcome = harness.Outcome

// CellFailure names one quarantined cell of a fault-isolated sweep.
type CellFailure = harness.CellFailure

// Sentinel errors of the fault-isolated and resumable sweep paths;
// match with errors.Is.
var (
	// ErrCellTimeout: a cell exceeded SweepOptions.CellTimeout.
	ErrCellTimeout = harness.ErrCellTimeout
	// ErrJournalMismatch: the journal directory belongs to a sweep run
	// with different flags or a different grid.
	ErrJournalMismatch = harness.ErrJournalMismatch
)

// ResumableSweep measures a grid's cells with per-cell failure isolation
// and, when journalDir is non-empty, crash-safe journaling: every completed
// cell is appended (checksummed, fsynced) to journalDir/sweep.journal,
// the directory's only file, so re-running after a crash with the same
// arguments replays completed cells and re-measures only in-flight ones
// — the merged outcome is bit-identical to an uninterrupted run. Cells
// that keep failing after SweepOptions.Retries attempts are quarantined
// into the outcome's Failures manifest while the rest of the grid
// completes; Outcome.Err() summarizes the manifest. A journal written
// under different arguments or over a different grid is refused with
// ErrJournalMismatch.
func ResumableSweep(g Grid, journalDir string, o SweepOptions) (*SweepOutcome, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o.runner().ResumableGrid(g, o.Workers, harness.JournalConfig{Dir: journalDir})
}

// Figures writes the text report of a sweep's points. A grid over
// several channel counts gets the channel-scaling table (min-over-
// alignments cycles per channel count, with the speedup over the first)
// and one over several pva-sdram back ends the back-end table (speedup
// over cache-line serial, and each back end's conflict work); a
// one-machine grid gets every evaluation figure (7-11) plus the
// headline ratios.
func Figures(w io.Writer, points []SweepPoint) {
	harness.Report(w, points)
}
