package dramtech

import (
	"testing"

	"pva/internal/addr"
	"pva/internal/memsys"
)

// issueTickStream is a fixed per-cycle command stream for one back end:
// 128 column accesses over the four internal banks, three rows each,
// reads with every eighth access a write, scheduled greedily in order
// with the model's Need answers (a cycle whose access must wait is a
// NOP). On the row back ends it mixes row hits, activates and
// conflicting precharges; on SRAM every cycle is an access.
func issueTickStream(b *testing.B, spec Spec, t Timing) (*Device, []Request) {
	d := NewDevice(addr.MustSDRAMGeom(4, 512, 8192), t, spec, memsys.NewStore(), 0, 16)
	m := d.Model()
	var stream []Request
	for i := uint32(0); i < 128; i++ {
		want := Request{Cmd: Read, IBank: i % 4, Row: i / 4 % 3 * 5, Col: i, Tag: uint64(i)}
		if i%8 == 7 {
			want.Cmd, want.Data = Write, i
		}
		for cycle := uint64(len(stream)); ; cycle++ {
			req := want
			switch m.Need(m.UnitIndex(want.IBank, want.Row), want.Row, cycle) {
			case NeedWait:
				req = Request{Cmd: Nop}
			case NeedActivate:
				req = Request{Cmd: Activate, IBank: want.IBank, Row: want.Row}
			case NeedPrecharge:
				req = Request{Cmd: Precharge, IBank: want.IBank, Row: want.Row}
			}
			if err := d.Issue(req); err != nil {
				b.Fatal(err)
			}
			d.Tick()
			stream = append(stream, req)
			if req.Cmd == want.Cmd {
				break
			}
		}
	}
	return d, stream
}

// BenchmarkDeviceIssueTick times the device layer alone: Issue and Tick
// for every cycle of a fixed command stream, on each back end, from a
// Reset device. It reports host time per device cycle.
func BenchmarkDeviceIssueTick(b *testing.B) {
	salp, err := SpecFor("salp", 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	pcm, err := SpecFor("pcm", 0, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		spec   Spec
		timing Timing
	}{
		{"sdram", Spec{}, PaperTiming()},
		{"salp-4", salp, PaperTiming()},
		{"pcm-4p", pcm, PCMTiming()},
		{"sram", Spec{Backend: BackendSRAM}, PaperTiming()},
	} {
		b.Run(c.name, func(b *testing.B) {
			d, stream := issueTickStream(b, c.spec, c.timing)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Reset()
				for _, r := range stream {
					if err := d.Issue(r); err != nil {
						b.Fatal(err)
					}
					d.Tick()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/cycle")
		})
	}
}
