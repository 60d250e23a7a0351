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
				board.Open(txn, board.AllBanks())
				for bank := uint32(1); bank < cfg.Banks; bank++ {
					board.Done(bank, txn)
				}
				if op == memsys.Write {
					bc.StageWriteData(txn, line)
				}
				if _, err := bc.ObserveCommand(bc.CycleNow(), op, v, nil, nil, txn); err != nil {
					b.Fatal(err)
				}
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

// BenchmarkBroadcast drives one controller of the 16-bank paper machine
// through the request path. It observes a fixed stream of 32-element
// reads and writes at the six paper strides, broadcast eight at a time
// in back-to-back cycles, dispatches them into its vector contexts and
// drains them. Half the commands start on an odd word, which bank 0
// never owns at the even strides, so the stream mixes hits and misses.
// It reports host time per broadcast observed.
func BenchmarkBroadcast(b *testing.B) {
	cfg := PaperConfig(0)
	board := bus.NewBoard(cfg.Banks)
	bc := New(cfg, memsys.NewStore(), board)
	type command struct {
		op memsys.Op
		v  core.Vector
	}
	var stream []command
	for i, stride := range []uint32{1, 2, 4, 8, 16, 19} {
		for odd := uint32(0); odd < 2; odd++ {
			for _, op := range []memsys.Op{memsys.Read, memsys.Write} {
				stream = append(stream, command{op, core.Vector{Base: uint32(i)<<14 | odd, Stride: stride, Length: 32}})
			}
		}
	}
	line := make([]uint32, 32)
	txns := make([]int, 0, bus.MaxTransactions)
	tick := func() {
		if err := bc.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	pass := func() {
		for lo := 0; lo < len(stream); lo += bus.MaxTransactions {
			for _, c := range stream[lo:min(lo+bus.MaxTransactions, len(stream))] {
				txn, _ := board.Alloc()
				board.Open(txn, board.AllBanks())
				for bank := uint32(1); bank < cfg.Banks; bank++ {
					board.Done(bank, txn)
				}
				took, err := bc.ObserveCommand(bc.CycleNow(), c.op, c.v, nil, nil, txn)
				if err != nil {
					b.Fatal(err)
				}
				if took && c.op == memsys.Write {
					bc.StageWriteData(txn, line) // as the front end does
				}
				txns = append(txns, txn)
				tick()
			}
			for _, txn := range txns {
				for !board.AllDone(txn) {
					tick()
				}
				bc.CollectRead(txn, line)
				bc.Release(txn)
				board.Release(txn)
			}
			txns = txns[:0]
		}
	}
	pass() // warm the store pages and staging buffers
	before := bc.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	after := bc.Stats()
	if hits, misses := after.Requests-before.Requests, after.NoHitCommands-before.NoHitCommands; hits == 0 || misses == 0 {
		b.Fatalf("stream took %d requests and missed %d broadcasts; want both", hits, misses)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/command")
}
