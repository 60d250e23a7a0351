package pva

import (
	"errors"
	"strings"
	"testing"
)

// faultTestTrace is a small gather/compute/scatter workload touching
// every bank at two different strides.
func faultTestTrace() Trace {
	line := make([]uint32, 32)
	for i := range line {
		line[i] = uint32(7 * i)
	}
	return Trace{Cmds: []VectorCmd{
		{Op: Read, V: Vector{Base: 128, Stride: 19, Length: 32}},
		{Op: Write, V: Vector{Base: 4096, Stride: 3, Length: 32}, Data: line},
		{Op: Read, V: Vector{Base: 4096, Stride: 3, Length: 32}, DependsOn: []int{1}},
		{Op: Write, V: Vector{Base: 1 << 16, Stride: 1, Length: 32}, DependsOn: []int{0},
			Compute: func(deps [][]uint32) []uint32 {
				out := make([]uint32, 32)
				for j := range out {
					out[j] = deps[0][j] + 1
				}
				return out
			}},
	}}
}

// TestECCCorrectedRunBitIdentical is the metamorphic contract of the
// fault layer: single-bit flips are corrected combinationally, so a run
// that only ever sees correctable faults is bit-identical — cycles,
// data, and every non-fault counter — to a clean run.
func TestECCCorrectedRunBitIdentical(t *testing.T) {
	tr := faultTestTrace()
	clean, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.FaultPlan = FaultPlan{Seed: 13, BitFlipRate: 0.2}
	faulty, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := faulty.Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	if got.Cycles != want.Cycles {
		t.Fatalf("cycles diverged: %d vs clean %d", got.Cycles, want.Cycles)
	}
	if got.Stats.CorrectedECC == 0 {
		t.Fatal("rate 0.2 corrected nothing")
	}
	if got.Stats.UncorrectedECC != 0 || got.Stats.ECCRetries != 0 {
		t.Fatalf("single-bit plan produced uncorrectable activity: %+v", got.Stats)
	}
	ecc := got.Stats
	ecc.CorrectedECC = 0
	if ecc != want.Stats {
		t.Fatalf("non-fault counters diverged:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
	for i := range tr.Cmds {
		if tr.Cmds[i].Op != Read {
			continue
		}
		for j := range want.ReadData[i] {
			if got.ReadData[i][j] != want.ReadData[i][j] {
				t.Fatalf("cmd %d word %d: %#x vs clean %#x", i, j, got.ReadData[i][j], want.ReadData[i][j])
			}
		}
	}
}

// TestFaultCountersDeterministic: with a fixed seed, two identical runs
// report identical fault counters and timing.
func TestFaultCountersDeterministic(t *testing.T) {
	tr := faultTestTrace()
	run := func() Result {
		cfg := DefaultConfig()
		cfg.FaultPlan = FaultPlan{Seed: 99, BitFlipRate: 0.05, DoubleFlipRate: 0.02, DropRate: 0.3, MaxRetries: -1, Backoff: 2}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats != b.Stats || a.Cycles != b.Cycles {
		t.Fatalf("identical seeded runs diverged:\n%+v (%d cycles)\n%+v (%d cycles)",
			a.Stats, a.Cycles, b.Stats, b.Cycles)
	}
	if a.Stats.CorrectedECC == 0 && a.Stats.UncorrectedECC == 0 && a.Stats.BusNACKs == 0 {
		t.Fatalf("plan injected nothing: %+v", a.Stats)
	}
}

// TestFaultIdleSkipEquivalence: fault injection must not break the
// idle-skip bit-identity guarantee — the injector hashes coordinates,
// never evaluation order.
func TestFaultIdleSkipEquivalence(t *testing.T) {
	tr := faultTestTrace()
	run := func(disable bool) Result {
		cfg := DefaultConfig()
		cfg.DisableIdleSkip = disable
		cfg.FaultPlan = FaultPlan{Seed: 4, BitFlipRate: 0.1, DoubleFlipRate: 0.01, DropRate: 0.2, MaxRetries: -1}
		cfg.WatchdogCycles = 500_000
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	skip, strict := run(false), run(true)
	if skip.Cycles != strict.Cycles || skip.Stats != strict.Stats {
		t.Fatalf("idle skip diverged under faults:\nskip   %+v (%d cycles)\nstrict %+v (%d cycles)",
			skip.Stats, skip.Cycles, strict.Stats, strict.Cycles)
	}
}

// TestDegradedRunEndToEnd drives the public API through a dead bank and
// checks the data against the reference.
func TestDegradedRunEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FaultPlan = FaultPlan{DeadBanks: []uint32{6}}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := faultTestTrace()
	res, err := sys.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DegradedElements == 0 {
		t.Fatal("dead bank 6 serviced no elements via fallback")
	}
	checkAgainstReference(t, sys, tr)
}

// TestConfigValidate is the table-driven contract for the up-front
// configuration check.
func TestConfigValidate(t *testing.T) {
	mod := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	cases := []struct {
		name    string
		cfg     Config
		ok      bool
		errWant string
	}{
		{"defaults", DefaultConfig(), true, ""},
		{"zero value fills defaults", Config{}, true, ""},
		{"banks not power of two", mod(func(c *Config) { c.Banks = 12 }), false, "power of two"},
		{"banks too large", mod(func(c *Config) { c.Banks = 128 }), false, "64"},
		{"channels not power of two", mod(func(c *Config) { c.Channels = 3 }), false, "power of two"},
		{"line words not power of two", mod(func(c *Config) { c.LineWords = 24 }), false, "power of two"},
		{"bad fault rate", mod(func(c *Config) { c.FaultPlan.BitFlipRate = 2 }), false, "outside"},
		{"dead bank out of range", mod(func(c *Config) { c.FaultPlan.DeadBanks = []uint32{16} }), false, "out of range"},
		{"dead bank on second channel", mod(func(c *Config) {
			c.Channels = 2
			c.FaultPlan.DeadBanks = []uint32{31}
		}), true, ""},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if err != nil && !strings.Contains(err.Error(), c.errWant) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.errWant)
		}
		// NewSystem must enforce the same contract.
		if _, err := NewSystem(c.cfg); (err == nil) != c.ok {
			t.Errorf("%s: NewSystem disagrees with Validate", c.name)
		}
	}
}

// TestZeroLengthVectorRejected: traces with zero-length vectors are
// rejected up front with a clear message.
func TestZeroLengthVectorRejected(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(Trace{Cmds: []VectorCmd{{Op: Read, V: Vector{Base: 0, Stride: 1, Length: 0}}}})
	if err == nil || !strings.Contains(err.Error(), "zero length") {
		t.Fatalf("zero-length vector: err = %v", err)
	}
}

// TestPublicSentinels: the re-exported sentinels match the errors Run
// returns.
func TestPublicSentinels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FaultPlan = FaultPlan{Seed: 3, DropRate: 1, MaxRetries: -1}
	cfg.WatchdogCycles = 2000
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(faultTestTrace()); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("livelock: err = %v, want ErrDeadlock", err)
	}
}

// TestWatchdogFiresMultiChannel: the forward-progress watchdog must
// catch a livelocked two-channel machine, and its diagnostic dump must
// name the stuck tickets.
func TestWatchdogFiresMultiChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.FaultPlan = FaultPlan{Seed: 3, DropRate: 1, MaxRetries: -1}
	cfg.WatchdogCycles = 2000
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(faultTestTrace())
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "stalled tickets") {
		t.Fatalf("dump does not name stalled tickets: %v", err)
	}
}

// FuzzFaultRecovery drives random traces through a fault-injecting PVA
// system and demands that every run either completes with data matching
// the functional reference or fails with one of the structured fault
// errors — never silent corruption, never a hang (the watchdog bounds
// every run).
func FuzzFaultRecovery(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, ok := parseFuzzTrace(data, true)
		if !ok {
			t.Skip()
		}
		ref := Reference()
		want, err := ref.Run(tr)
		if err != nil {
			t.Skip() // structurally invalid trace
		}
		// Derive the fault seed from the trace so the corpus explores
		// different injection patterns.
		seed := uint64(len(data))
		for _, b := range data {
			seed = seed*131 + uint64(b)
		}
		cfg := DefaultConfig()
		cfg.FaultPlan = FaultPlan{
			Seed:           seed,
			BitFlipRate:    0.05,
			DoubleFlipRate: 0.01,
			DropRate:       0.1,
			DeadBanks:      []uint32{uint32(seed % 16)},
			Backoff:        2,
		}
		cfg.WatchdogCycles = 1_000_000
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.Run(tr)
		if err != nil {
			// Bounded recovery may legitimately exhaust its budget; it
			// must do so with a structured, classifiable error.
			if errors.Is(err, ErrUncorrectable) || errors.Is(err, ErrBusFault) || errors.Is(err, ErrDeadlock) {
				return
			}
			t.Fatalf("unstructured failure: %v", err)
		}
		for i, c := range tr.Cmds {
			if c.Op != Read {
				continue
			}
			for j := range want.ReadData[i] {
				if got.ReadData[i][j] != want.ReadData[i][j] {
					t.Fatalf("cmd %d word %d: %#x, reference %#x", i, j, got.ReadData[i][j], want.ReadData[i][j])
				}
			}
		}
		for _, c := range tr.Cmds {
			for i := uint32(0); i < c.V.Length; i++ {
				a := c.Addr(i)
				if g, w := sys.Peek(a), ref.Peek(a); g != w {
					t.Fatalf("final image at %d: %#x, reference %#x", a, g, w)
				}
			}
		}
	})
}
