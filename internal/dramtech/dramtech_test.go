package dramtech

import (
	"testing"

	"pva/internal/addr"
	"pva/internal/memsys"
)

func TestSDRAMMatchesEvaluationDevice(t *testing.T) {
	s, err := ByKind(SDRAM)
	if err != nil {
		t.Fatal(err)
	}
	// The Section 6.1 cache-line serial system: 2 RAS + 2 CAS + one word
	// per cycle... the paper counts a 16-cycle burst of 64-bit transfers;
	// per-device we stream 32 words: 2 + 2 + 31 = 35 device cycles, and
	// the 20-cycle figure is the bus-side number. The device-side
	// line-fill must be exactly RowOpen + CAS + 31.
	if got := s.LineFill(32); got != 2+2+31 {
		t.Errorf("SDRAM LineFill(32) = %d", got)
	}
}

func TestTechnologyOrdering(t *testing.T) {
	// Each interface generation strictly improves streaming from an open
	// row (the Chapter 2 narrative), while SRAM wins isolated accesses.
	line := map[Kind]uint64{}
	word := map[Kind]uint64{}
	for _, c := range Compare() {
		line[c.Tech.Kind] = c.LineFill32
		word[c.Tech.Kind] = c.RandomWord
	}
	if !(line[FPM] > line[EDO] && line[EDO] > line[SDRAM] && line[SDRAM] > line[DDR]) {
		t.Errorf("line-fill ordering broken: %v", line)
	}
	// Streaming from an open row, dual-edge DRAM can actually beat a
	// single-ported SRAM — the paper's Chapter 2 premise that pipelined
	// DRAM "might be able to deliver performance close to that of the
	// SRAM part at a fraction of the cost".
	if line[SDRAM] > 2*line[SRAM] {
		t.Errorf("pipelined SDRAM fill %d not within 2x of SRAM %d", line[SDRAM], line[SRAM])
	}
	for _, k := range []Kind{FPM, EDO, SDRAM, DDR} {
		if word[k] <= word[SRAM] {
			t.Errorf("%v random word %d not worse than SRAM %d", k, word[k], word[SRAM])
		}
	}
}

func TestDDRHalvesStreaming(t *testing.T) {
	ddr, _ := ByKind(DDR)
	sdram, _ := ByKind(SDRAM)
	// Marginal streaming cost: SDRAM pays 31 cycles for 31 extra words,
	// DDR pays 16 (ceil of 31/2).
	if d, s := ddr.LineFill(32)-ddr.LineFill(1), sdram.LineFill(32)-sdram.LineFill(1); d*2 < s {
		t.Errorf("DDR marginal %d, SDRAM %d: more than 2x apart", d, s)
	} else if d >= s {
		t.Errorf("DDR marginal %d not below SDRAM %d", d, s)
	}
}

func TestLineFillEdges(t *testing.T) {
	s, _ := ByKind(SDRAM)
	if s.LineFill(0) != 0 {
		t.Error("zero-length fill should cost nothing")
	}
	if s.LineFill(1) != 4 { // 2 RAS + 2 CAS
		t.Errorf("single word fill = %d", s.LineFill(1))
	}
}

func TestByKindUnknown(t *testing.T) {
	if _, err := ByKind(Kind(99)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestStrings(t *testing.T) {
	for _, tech := range All() {
		if tech.Kind.String() == "" {
			t.Error("empty name")
		}
	}
}

// TestSpecTiming pins the timing each back end runs on and the costs
// every consumer outside the device reads from it: the rowless
// SRAM and PCM run on their presets whatever is configured, SDRAM and
// SALP on the configured timing, and the device reports what it runs
// on. A preset's RandomWord is its timing's closed access.
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
		randomWord           Kind // the preset whose RandomWord is closed; -1: none
	}{
		{"sdram", Spec{}, configured, configured, 12, 8, -1},
		{"salp-4", Spec{Backend: BackendSALP, Units: 4}, configured, configured, 12, 8, -1},
		{"pcm-4p", pcm, configured, Timing{TRCD: 4, CL: 2, TRP: 1}, 7, 5, PCM},
		{"sram", Spec{Backend: BackendSRAM}, configured, Timing{CL: 1}, 1, 0, SRAM},
		{"paper", Spec{}, PaperTiming(), PaperTiming(), 6, 4, SDRAM},
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
		if c.randomWord >= 0 {
			tech, err := ByKind(c.randomWord)
			if err != nil {
				t.Fatal(err)
			}
			if tech.RandomWord() != c.closed {
				t.Errorf("%s: RandomWord %d, closed access %d", c.name, tech.RandomWord(), c.closed)
			}
		}
	}
}
