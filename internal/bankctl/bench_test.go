package bankctl

import (
	"testing"

	"pva/internal/bus"
	"pva/internal/core"
	"pva/internal/dramtech"
	"pva/internal/memsys"
)

// BenchmarkSchedulerStep drives one bank controller, alone on its
// board, through a strided read and then a write of the same 32
// elements, each to completion, on every device back end. The stride
// puts every element in bank 0, internal bank 0, one row apart, so each
// access needs its own activate: on sdram every row conflicts, on
// salp-4 and pcm-4p the rows fold onto four units. It reports host time
// per SDRAM access issued.
func BenchmarkSchedulerStep(b *testing.B) {
	salp, err := dramtech.SpecFor("salp", 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	pcm, err := dramtech.SpecFor("pcm", 0, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, tech := range []struct {
		name   string
		spec   dramtech.Spec
		timing dramtech.Timing
	}{
		{"sdram", dramtech.Spec{}, dramtech.PaperTiming()},
		{"salp-4", salp, dramtech.PaperTiming()},
		{"pcm-4p", pcm, dramtech.PCMTiming()},
	} {
		b.Run(tech.name, func(b *testing.B) {
			cfg := PaperConfig(0)
			cfg.Tech = tech.spec
			cfg.Timing = tech.timing
			board := bus.NewBoard(cfg.Banks)
			bc := New(cfg, memsys.NewStore(), board)
			v := core.Vector{Stride: cfg.Banks * 2048, Length: 32}
			line := make([]uint32, v.Length)
			stream := func(op memsys.Op) {
				txn, _ := board.Alloc()
				board.Open(txn)
				for bank := uint32(1); bank < cfg.Banks; bank++ {
					board.Done(bank, txn)
				}
				if op == memsys.Write {
					bc.StageWriteData(txn, line)
				}
				bc.ObserveCommand(op, v, nil, nil, txn)
				for !board.AllDone(txn) {
					if err := bc.Tick(); err != nil {
						b.Fatal(err)
					}
				}
				bc.CollectRead(txn, line)
				bc.Release(txn)
				board.Release(txn)
			}
			stream(memsys.Read) // warm the store pages and staging buffers
			stream(memsys.Write)
			before := bc.Device().Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stream(memsys.Read)
				stream(memsys.Write)
			}
			b.StopTimer()
			after := bc.Device().Stats()
			accesses := after.Reads + after.Writes - before.Reads - before.Writes
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
		})
	}
}
