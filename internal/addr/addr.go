// Package addr holds the simulator's address vocabulary: the 32-bit
// word address, and the decomposition of a per-bank word index into
// SDRAM column / internal-bank / row coordinates. How words are spread
// over channels and banks is internal/addrmap's job.
//
// Throughout the simulator an address is a 32-bit *word* address (one word
// = 4 bytes), matching the paper's convention of measuring strides in
// machine words.
package addr

import "fmt"

// Word is a 32-bit word address. The physical byte address is Word * 4.
type Word = uint32

// SDRAMGeom decomposes a per-bank word index into SDRAM coordinates.
// The prototype drives one 32-bit-wide SDRAM per bank with four internal
// banks and 512-word (2 KB) rows; internal banks are interleaved at row
// granularity so that a long unit-stride sweep within one external bank
// rotates across internal banks (allowing activate/precharge overlap).
type SDRAMGeom struct {
	InternalBanks uint32 // internal banks per device; power of two
	RowWords      uint32 // words per row; power of two
	Rows          uint32 // rows per internal bank
	ibShift       uint
	rowShift      uint
	// rowMask is Rows-1 when Rows is a power of two (every shipped
	// geometry), letting Decompose mask instead of divide on the
	// scheduler's per-cycle path; 0 selects the general modulo.
	rowMask uint32
}

// NewSDRAMGeom validates and returns an SDRAM geometry.
func NewSDRAMGeom(internalBanks, rowWords, rows uint32) (SDRAMGeom, error) {
	ib, err := log2(internalBanks)
	if err != nil {
		return SDRAMGeom{}, fmt.Errorf("sdram internal banks: %w", err)
	}
	rw, err := log2(rowWords)
	if err != nil {
		return SDRAMGeom{}, fmt.Errorf("sdram row words: %w", err)
	}
	if rows == 0 {
		return SDRAMGeom{}, fmt.Errorf("sdram rows: must be positive")
	}
	g := SDRAMGeom{
		InternalBanks: internalBanks,
		RowWords:      rowWords,
		Rows:          rows,
		ibShift:       rw,
		rowShift:      rw + ib,
	}
	if rows&(rows-1) == 0 {
		g.rowMask = rows - 1
	}
	return g, nil
}

// MustSDRAMGeom is NewSDRAMGeom for known-good constants.
func MustSDRAMGeom(internalBanks, rowWords, rows uint32) SDRAMGeom {
	g, err := NewSDRAMGeom(internalBanks, rowWords, rows)
	if err != nil {
		panic(err)
	}
	return g
}

// Coord is the location of a word within one SDRAM device.
type Coord struct {
	IBank uint32 // internal bank
	Row   uint32 // row within the internal bank
	Col   uint32 // column (word) within the row
}

// Decompose maps a per-bank word index to its SDRAM coordinates.
func (g SDRAMGeom) Decompose(bankWord uint32) Coord {
	row := bankWord >> g.rowShift
	if g.rowMask != 0 {
		row &= g.rowMask
	} else {
		row %= g.Rows
	}
	return Coord{
		Col:   bankWord & (g.RowWords - 1),
		IBank: (bankWord >> g.ibShift) & (g.InternalBanks - 1),
		Row:   row,
	}
}

// Compose is the inverse of Decompose.
func (g SDRAMGeom) Compose(c Coord) uint32 {
	return c.Row<<g.rowShift | c.IBank<<g.ibShift | c.Col
}

// CapacityWords returns the number of words one device stores.
func (g SDRAMGeom) CapacityWords() uint64 {
	return uint64(g.InternalBanks) * uint64(g.Rows) * uint64(g.RowWords)
}

// log2 returns log2(x) for a positive power of two, or an error.
func log2(x uint32) (uint, error) {
	if x == 0 || x&(x-1) != 0 {
		return 0, fmt.Errorf("%d is not a positive power of two", x)
	}
	var lg uint
	for x > 1 {
		x >>= 1
		lg++
	}
	return lg, nil
}
