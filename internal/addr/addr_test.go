package addr

import (
	"testing"
	"testing/quick"
)

func TestSDRAMGeomDecompose(t *testing.T) {
	g := MustSDRAMGeom(4, 512, 8192)
	cases := []struct {
		w uint32
		c Coord
	}{
		{0, Coord{IBank: 0, Row: 0, Col: 0}},
		{511, Coord{IBank: 0, Row: 0, Col: 511}},
		{512, Coord{IBank: 1, Row: 0, Col: 0}},
		{512 * 4, Coord{IBank: 0, Row: 1, Col: 0}},
		{512*4*3 + 512*2 + 7, Coord{IBank: 2, Row: 3, Col: 7}},
	}
	for _, c := range cases {
		if got := g.Decompose(c.w); got != c.c {
			t.Errorf("Decompose(%d) = %+v, want %+v", c.w, got, c.c)
		}
		if back := g.Compose(c.c); back != c.w {
			t.Errorf("Compose(%+v) = %d, want %d", c.c, back, c.w)
		}
	}
}

func TestSDRAMGeomRoundTripQuick(t *testing.T) {
	g := MustSDRAMGeom(4, 512, 8192)
	limit := uint32(g.CapacityWords())
	f := func(w uint32) bool {
		w %= limit
		return g.Compose(g.Decompose(w)) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSDRAMGeomCapacity(t *testing.T) {
	g := MustSDRAMGeom(4, 512, 8192)
	// 4 banks * 8192 rows * 512 words * 4 bytes = 64 MB = 512 Mbit... the
	// modeled device pairs two 256 Mbit x16 parts into a 32-bit bank.
	if got := g.CapacityWords(); got != 4*8192*512 {
		t.Errorf("CapacityWords = %d", got)
	}
}

func TestSDRAMGeomValidation(t *testing.T) {
	if _, err := NewSDRAMGeom(3, 512, 8192); err == nil {
		t.Error("expected error for internalBanks=3")
	}
	if _, err := NewSDRAMGeom(4, 500, 8192); err == nil {
		t.Error("expected error for rowWords=500")
	}
	if _, err := NewSDRAMGeom(4, 512, 0); err == nil {
		t.Error("expected error for rows=0")
	}
}

// TestInterleaveRotatesInternalBanks documents why internal banks are
// interleaved at row granularity: a unit-stride sweep through one
// external bank's words crosses internal banks every RowWords words,
// letting activates overlap accesses.
func TestInterleaveRotatesInternalBanks(t *testing.T) {
	g := MustSDRAMGeom(4, 512, 8192)
	prev := g.Decompose(0)
	for w := uint32(1); w < 512*8; w++ {
		c := g.Decompose(w)
		if c.Col == 0 {
			if c.IBank == prev.IBank {
				t.Fatalf("row crossing at word %d stayed in internal bank %d", w, c.IBank)
			}
		}
		prev = c
	}
}
