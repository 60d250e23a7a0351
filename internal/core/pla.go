// PLA lookup-table models for the FirstHit/NextHit hardware of Section
// 4.2. In the real design "most of the variables used to explain the
// functional operation of these components will never be calculated
// explicitly; instead, their values will be compiled into the circuitry
// in the form of look-up tables." K1PLA is that compilation step: it
// precomputes every table entry at construction so that per-request work
// is an indexed load plus (for non-power-of-two strides) a small
// multiply. The paper sketches two hardware organizations:
//
//   - K1PLA: indexed by S mod M, returns (s, delta, K1). FirstHit is then
//     K1 * (d >> s) masked to m-s bits. PLA size grows linearly in M;
//     this is the organization recommended for large M (Section 4.3.1),
//     and the one every bank controller runs.
//   - FullPLA: indexed by (S mod M, d), directly returns K_i. Size grows
//     as M^2, viable up to about 16 banks. It is not built here;
//     internal/complexity accounts for its size against K1PLA's.

package core

// K1Entry is one row of the stride-indexed PLA.
type K1Entry struct {
	S2      uint   // s
	Delta   uint32 // 2^(m-s)
	K1      uint32
	HitMask uint32 // d hits iff d & HitMask == 0 (mask = 2^s - 1)
}

// K1PLA is the linear-size PLA organization: one entry per residue of the
// stride modulo M.
type K1PLA struct {
	geom    Geometry
	entries []K1Entry
}

// NewK1PLA compiles the K1 table for the geometry.
func NewK1PLA(g Geometry) *K1PLA {
	entries := make([]K1Entry, g.M)
	for sm := uint32(0); sm < g.M; sm++ {
		c := g.Classify(sm)
		entries[sm] = K1Entry{
			S2:      c.S2,
			Delta:   c.Delta,
			K1:      c.K1,
			HitMask: uint32(1)<<c.S2 - 1,
		}
	}
	return &K1PLA{geom: g, entries: entries}
}

// Lookup returns the compiled entry for a stride.
func (p *K1PLA) Lookup(stride uint32) K1Entry {
	return p.entries[stride&(p.geom.M-1)]
}

// FirstHit evaluates Theorem 4.3 using the table: a lookup, a compare, a
// small multiply, and a mask.
func (p *K1PLA) FirstHit(v Vector, b uint32) uint32 {
	if v.Length == 0 {
		return NoHit
	}
	e := p.Lookup(v.Stride)
	d := (b - p.geom.DecodeBank(v.Base)) & (p.geom.M - 1)
	if e.Delta == 1 { // stride multiple of M: everything lands on b0
		if d != 0 {
			return NoHit
		}
		return 0
	}
	if d&e.HitMask != 0 {
		return NoHit
	}
	ki := (e.K1 * (d >> e.S2)) & (e.Delta - 1)
	if ki >= v.Length {
		return NoHit
	}
	return ki
}

// NextHit returns delta via the table.
func (p *K1PLA) NextHit(stride uint32) uint32 { return p.Lookup(stride).Delta }
