package pva

import "testing"

// steadyTrace is a small mixed read/preset-write trace for the
// allocation pin. Compute-driven writes are deliberately absent: a
// Compute closure allocates its result line by design, so the
// zero-allocation guarantee covers reads and preset-data writes — the
// paths the simulator itself owns end to end.
func steadyTrace() Trace {
	data := make([]uint32, 32)
	for i := range data {
		data[i] = uint32(i) * 3
	}
	return Trace{Cmds: []VectorCmd{
		{Op: Write, V: Vector{Base: 0, Stride: 4, Length: 32}, Data: data},
		{Op: Read, V: Vector{Base: 1, Stride: 19, Length: 32}},
		{Op: Read, V: Vector{Base: 7, Stride: 5, Length: 32}},
		{Op: Write, V: Vector{Base: 3, Stride: 8, Length: 32}, Data: data},
		{Op: Read, V: Vector{Base: 0, Stride: 4, Length: 32}, DependsOn: []int{0}},
	}}
}

// TestSteadyStateZeroAlloc pins the tentpole guarantee: once a System's
// pools are warm, repeated Runs through the public API allocate nothing
// — every command state, line buffer, FIFO entry, and device pipe slot
// is recycled. A regression here is a regression in the free lists, the
// capacity-preserving resets, or the session-reuse path, and should be
// fixed rather than ratified.
func TestSteadyStateZeroAlloc(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := steadyTrace()
	for i := 0; i < 3; i++ { // warm the pools and slice capacities
		if _, err := sys.Run(tr); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sys.Run(tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Run allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSteadyStateZeroAllocStrict repeats the pin with idle-cycle
// skipping disabled: the strict tick-every-cycle loop exercises every
// component's Tick path each cycle and must be just as allocation-free.
func TestSteadyStateZeroAllocStrict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableIdleSkip = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := steadyTrace()
	for i := 0; i < 3; i++ {
		if _, err := sys.Run(tr); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sys.Run(tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("strict-loop steady-state Run allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSteadyStateZeroAllocParallel repeats the pin with four memory
// channels ticked concurrently: the worker pool is process-global and
// steady-state (no per-cycle goroutine spawns), the per-cycle barrier
// reuses one WaitGroup, and the per-channel result slots live in the
// engine — so parallel ticking must be just as allocation-free as the
// serial loop.
func TestSteadyStateZeroAllocParallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 4
	cfg.ParallelChannels = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := steadyTrace()
	for i := 0; i < 3; i++ {
		if _, err := sys.Run(tr); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sys.Run(tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("parallel steady-state Run allocates %.1f objects/op, want 0", allocs)
	}
}

// steadyIndexedTrace mixes strided and indexed reads and preset-data
// writes, with duplicate offsets and a dependence across the two kinds.
// Like steadyTrace it carries no Compute writes.
func steadyIndexedTrace() Trace {
	data := make([]uint32, 32)
	for i := range data {
		data[i] = uint32(i)*7 + 1
	}
	dups := fuzzIdx(9, 32)
	dups[3], dups[17] = dups[1], dups[1]
	return Trace{Cmds: []VectorCmd{
		{Op: Write, V: Vector{Base: 1 << 20, Stride: 0, Length: 32}, Idx: fuzzIdx(4, 32), Data: data},
		{Op: Read, V: Vector{Base: 1 << 20, Stride: 0, Length: 32}, Idx: fuzzIdx(4, 32), DependsOn: []int{0}},
		{Op: Read, V: Vector{Base: 5, Stride: 19, Length: 32}},
		{Op: Read, V: Vector{Base: 64, Stride: 0, Length: 32}, Idx: dups},
		{Op: Write, V: Vector{Base: 3, Stride: 8, Length: 32}, Data: data},
		{Op: Read, V: Vector{Base: 1 << 12, Stride: 16, Length: 32}},
	}}
}

// TestSteadyStateZeroAllocIndexed extends the pin to the pre-claimed
// path: under decoders without closed-form hit math every command's
// per-bank element lists come from the dispatcher's per-transaction
// storage, which must be reused rather than rebuilt once warm. It runs
// on four channels under the xor decoder with 4-partition PCM, and
// under a tuned XOR-hash spec.
func TestSteadyStateZeroAllocIndexed(t *testing.T) {
	xorPCM := DefaultConfig()
	xorPCM.Channels = 4
	xorPCM.AddrMap = "xor"
	xorPCM.Tech = "pcm"
	xorPCM.Partitions = 4
	tuned := DefaultConfig()
	tuned.Channels = 4
	tuned.AddrMap = "tuned:0x9,0x12,0x24,0x3"
	tr := steadyIndexedTrace()
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"xor-pcm4", xorPCM}, {"tuned", tuned}} {
		sys, err := NewSystem(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := sys.Run(tr); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := sys.Run(tr); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state Run allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
}
