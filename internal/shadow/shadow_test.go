package shadow

import (
	"testing"

	"pva/internal/baseline"
	corepkg "pva/internal/core"
	"pva/internal/memsys"
	"pva/internal/pvaunit"
)

func space(t *testing.T) *Space {
	t.Helper()
	return MustNew([]Mapping{
		{ShadowBase: 1 << 28, Length: 256, Base: 0, Stride: 19},
		{ShadowBase: 1<<28 + 1024, Length: 64, Base: 1 << 20, Stride: 512},
	})
}

func TestTranslate(t *testing.T) {
	s := space(t)
	cases := []struct {
		shadow uint32
		real   uint32
		ok     bool
	}{
		{1 << 28, 0, true},
		{1<<28 + 1, 19, true},
		{1<<28 + 255, 255 * 19, true},
		{1<<28 + 256, 0, false}, // hole
		{1<<28 + 1024, 1 << 20, true},
		{1<<28 + 1025, 1<<20 + 512, true},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := s.Translate(c.shadow)
		if ok != c.ok || (ok && got != c.real) {
			t.Errorf("Translate(%d) = (%d,%v), want (%d,%v)", c.shadow, got, ok, c.real, c.ok)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New([]Mapping{{ShadowBase: 0, Length: 0}}); err == nil {
		t.Error("zero-length region accepted")
	}
	if _, err := New([]Mapping{
		{ShadowBase: 0, Length: 100, Stride: 1},
		{ShadowBase: 50, Length: 100, Stride: 1},
	}); err == nil {
		t.Error("overlapping regions accepted")
	}
}

func TestLineFill(t *testing.T) {
	s := space(t)
	v, err := s.LineFill(1<<28+32, 32)
	if err != nil {
		t.Fatal(err)
	}
	if v.Base != 32*19 || v.Stride != 19 || v.Length != 32 {
		t.Fatalf("LineFill = %+v", v)
	}
	// Truncated at the region end.
	v, err = s.LineFill(1<<28+240, 32)
	if err != nil {
		t.Fatal(err)
	}
	if v.Length != 16 {
		t.Fatalf("tail LineFill length = %d, want 16", v.Length)
	}
	if _, err := s.LineFill(5, 32); err == nil {
		t.Error("unmapped LineFill accepted")
	}
}

// TestGatherThroughPVA walks a strided shadow region densely and checks
// the compacted lines equal the strided real memory contents — the
// Impulse use case end to end on the cycle-level PVA.
func TestGatherThroughPVA(t *testing.T) {
	s := space(t)
	m := Mapping{ShadowBase: 1 << 28, Length: 256, Base: 0, Stride: 19}
	sys := pvaunit.MustNew(pvaunit.PaperConfig())
	data, res, err := s.Gather(sys, m, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 256 {
		t.Fatalf("gathered %d words", len(data))
	}
	for i, w := range data {
		if want := memsys.Fill(uint32(i) * 19); w != want {
			t.Fatalf("shadow word %d = %#x, want %#x", i, w, want)
		}
	}
	if res.Cycles == 0 {
		t.Error("no cycles reported")
	}
	t.Logf("dense walk of 256-word shadow region (stride 19 behind it): %d cycles", res.Cycles)
}

// TestShadowBeatsDirectStridedWalk compares the PVA gathering through a
// shadow region against the conventional system fetching the same
// strided data line by line — the Impulse+PVA pitch in one number.
func TestShadowBeatsDirectStridedWalk(t *testing.T) {
	s := MustNew([]Mapping{{ShadowBase: 1 << 28, Length: 512, Base: 0, Stride: 19}})
	m := s.maps[0]

	pvaSys := pvaunit.MustNew(pvaunit.PaperConfig())
	_, pvaRes, err := s.Gather(pvaSys, m, 32)
	if err != nil {
		t.Fatal(err)
	}

	// The conventional system has no shadow space: the application walks
	// the real strided addresses and drags whole lines.
	var cmds []memsys.VectorCmd
	for off := uint32(0); off < m.Length; off += 32 {
		cmds = append(cmds, memsys.VectorCmd{Op: memsys.Read, V: corepkg.Vector{
			Base: m.Base + off*m.Stride, Stride: m.Stride, Length: 32,
		}})
	}
	base, err := baseline.NewCacheLineSerialChannels(1).Run(memsys.Trace{Cmds: cmds})
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles <= pvaRes.Cycles {
		t.Errorf("cacheline (%d) not slower than shadow+PVA (%d)", base.Cycles, pvaRes.Cycles)
	}
	t.Logf("shadow+PVA: %d cycles; conventional strided walk: %d cycles (%.1fx)",
		pvaRes.Cycles, base.Cycles, float64(base.Cycles)/float64(pvaRes.Cycles))
}
