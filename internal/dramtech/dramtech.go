// Package dramtech models the memory devices behind the bank
// controllers, in two layers.
//
// The technology table quantifies the background of the paper's
// Chapter 2: how Fast Page Mode, EDO, SDRAM and dual-data-rate parts
// differ in the one number that drives the evaluation — the time to
// move a cache line's worth of words through one device — and why every
// post-FPM interface amounts to deeper pipelining of the same DRAM core
// ("The current trends in DRAM technology can all be considered as
// interface modifications that are geared towards exploiting this
// ability to pipeline accesses to the maximum").
//
// The executable device (Device) is a cycle-level model of one
// external bank: the Micron 256 Mbit parts of the PVA prototype paired
// into a 32-bit-wide device with four internal banks, 2 KB rows and
// two-cycle RAS, CAS and precharge latencies (Section 6.1). Its Model
// tracks row state per unit over a choice of back end: plain SDRAM,
// SALP subarrays, PCM partitions, or the rowless SRAM of the PVA-SRAM
// comparison system. The device is deliberately strict: Issue returns
// a *ViolationError for any command that breaks the back end's state
// machine or timing. The bank controller's restimers exist precisely
// to make such violations impossible, and the tests inject illegal
// sequences to prove the checker catches them.
package dramtech

import "fmt"

// Kind enumerates the modeled device families.
type Kind int

const (
	// FPM is Fast Page Mode DRAM: multiple CAS cycles per RAS, but each
	// column access completes before the next begins.
	FPM Kind = iota
	// EDO adds the output latch that overlaps data-out with the next
	// column address.
	EDO
	// SDRAM synchronizes and fully pipelines column accesses: one word
	// per clock from an open row.
	SDRAM
	// DDR transfers on both clock edges: two words per clock from an
	// open row (the SLDRAM/DDR evolution of Section 2.3.4).
	DDR
	// SRAM is the uniform-access reference: one word per cycle, no row
	// overhead at all.
	SRAM
	// PCM is phase-change memory: non-volatile (no refresh), slower row
	// opens, and strongly asymmetric writes — cell programming occupies
	// the partition long after the data transfer (Song et al.'s PALP).
	PCM
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case FPM:
		return "fpm-dram"
	case EDO:
		return "edo-dram"
	case SDRAM:
		return "sdram"
	case DDR:
		return "ddr"
	case SRAM:
		return "sram"
	case PCM:
		return "pcm"
	default:
		return fmt.Sprintf("tech(%d)", int(k))
	}
}

// Tech describes one technology's timing at a common controller clock.
type Tech struct {
	Kind Kind
	// RowOpen is the cycles from row command to first possible column
	// access (RAS-to-CAS); zero for SRAM.
	RowOpen uint64
	// FirstWord is the column-access latency of the first word (CAS).
	FirstWord uint64
	// PerWordNum/PerWordDen give the marginal cost of each further word
	// from the open row as a rational number of cycles (DDR moves two
	// words per cycle, hence 1/2).
	PerWordNum, PerWordDen uint64
	// Precharge is the row-close cost paid before the next row open.
	Precharge uint64
	// WriteBusy is the extra cycles a write occupies its unit beyond the
	// data transfer — zero for every DRAM, large for PCM, whose cell
	// programming dominates write cost.
	WriteBusy uint64
}

// presets is the single source of truth for technology timings, in
// Kind order, normalized to the evaluation's 100 MHz controller clock
// (SDRAM matches the paper's 2/2/2 prototype device exactly). Both the
// Chapter-2 comparison tables and the executable device back ends
// (PaperTiming, PCMTiming, the SRAM device's timing and the PCM write
// occupancy in SpecFor) derive from this table, so the background
// numbers cannot drift from the simulated model.
var presets = [...]Tech{
	{Kind: FPM, RowOpen: 2, FirstWord: 3, PerWordNum: 3, PerWordDen: 1, Precharge: 3},
	{Kind: EDO, RowOpen: 2, FirstWord: 3, PerWordNum: 2, PerWordDen: 1, Precharge: 3},
	{Kind: SDRAM, RowOpen: 2, FirstWord: 2, PerWordNum: 1, PerWordDen: 1, Precharge: 2},
	{Kind: DDR, RowOpen: 2, FirstWord: 2, PerWordNum: 1, PerWordDen: 2, Precharge: 2},
	{Kind: SRAM, RowOpen: 0, FirstWord: 1, PerWordNum: 1, PerWordDen: 1, Precharge: 0},
	{Kind: PCM, RowOpen: 4, FirstWord: 2, PerWordNum: 1, PerWordDen: 1, Precharge: 1, WriteBusy: 8},
}

// All returns the modeled technologies.
func All() []Tech {
	out := make([]Tech, len(presets))
	copy(out, presets[:])
	return out
}

// ByKind returns the preset for one technology.
func ByKind(k Kind) (Tech, error) {
	for _, t := range presets {
		if t.Kind == k {
			return t, nil
		}
	}
	return Tech{}, fmt.Errorf("dramtech: unknown kind %d", int(k))
}

// LineFill returns the cycles to read n consecutive words from one
// closed row of the device: precharge-free row open, first-word
// latency, then the pipelined (or not) column stream.
func (t Tech) LineFill(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	rest := (n - 1) * t.PerWordNum
	return t.RowOpen + t.FirstWord + (rest+t.PerWordDen-1)/t.PerWordDen
}

// RandomWord returns the cycles for an isolated single-word access to a
// closed row including the eventual precharge — the uniform-access
// number SRAM wins on.
func (t Tech) RandomWord() uint64 {
	return t.RowOpen + t.FirstWord + t.Precharge
}

// Comparison is one row of the background table.
type Comparison struct {
	Tech       Tech
	LineFill32 uint64 // 128-byte line fill
	RandomWord uint64
}

// Compare evaluates every technology at the paper's 32-word line size.
func Compare() []Comparison {
	techs := All()
	out := make([]Comparison, len(techs))
	for i, t := range techs {
		out[i] = Comparison{Tech: t, LineFill32: t.LineFill(32), RandomWord: t.RandomWord()}
	}
	return out
}
