package dramtech

import (
	"testing"

	"pva/internal/addr"
	"pva/internal/memsys"
)

// TestSpecTiming pins the timing each back end runs on and the costs
// every consumer outside the device reads from it: the rowless
// SRAM and PCM run on their own timing whatever is configured, SDRAM and
// SALP on the configured timing, and the device reports what it runs
// on.
func TestSpecTiming(t *testing.T) {
	configured := Timing{TRCD: 3, CL: 4, TRP: 5, RefreshInterval: 100, TRFC: 6}
	pcm, err := SpecFor("pcm", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                 string
		spec                 Spec
		in, want             Timing
		closed, switchCycles uint64
	}{
		{"sdram", Spec{}, configured, configured, 12, 8},
		{"salp-4", Spec{Backend: BackendSALP, Units: 4}, configured, configured, 12, 8},
		{"pcm-4p", pcm, configured, Timing{TRCD: 4, CL: 2, TRP: 1}, 7, 5},
		{"sram", Spec{Backend: BackendSRAM}, configured, Timing{CL: 1}, 1, 0},
		{"paper", Spec{}, PaperTiming(), PaperTiming(), 6, 4},
	} {
		got := c.spec.Timing(c.in)
		if got != c.want {
			t.Errorf("%s: Timing = %+v, want %+v", c.name, got, c.want)
		}
		if got.ClosedAccess() != c.closed || got.RowSwitch() != c.switchCycles || got.ReadToWrite() != c.want.CL+1 {
			t.Errorf("%s: ClosedAccess %d RowSwitch %d ReadToWrite %d, want %d, %d and %d",
				c.name, got.ClosedAccess(), got.RowSwitch(), got.ReadToWrite(), c.closed, c.switchCycles, c.want.CL+1)
		}
		d := NewDevice(addr.MustSDRAMGeom(4, 512, 8192), c.in, c.spec, memsys.NewStore(), 0, 16)
		if d.Timing() != got {
			t.Errorf("%s: device runs on %+v, Spec.Timing says %+v", c.name, d.Timing(), got)
		}
	}
}
