// Device back-end suite: the technology-abstraction layer must keep the
// default SDRAM path bit-identical to the seed while SALP subarrays and
// the PCM partition model change timing the way the literature says they
// should — SALP removing row-conflict work on strided kernels, PCM
// slowing writes asymmetrically and stalling on busy partitions. Every
// back end must behave identically across the batch, streaming and
// clone execution paths.
package pva

import (
	"fmt"
	"testing"

	"pva/internal/pvaunit"
)

// techConfig builds a DefaultConfig on the named back end.
func techConfig(tech string, subarrays, partitions uint32) Config {
	cfg := DefaultConfig()
	cfg.Tech = tech
	cfg.SubarraysPerBank = subarrays
	cfg.Partitions = partitions
	return cfg
}

// runTechKernel runs one kernel cell on a fresh PVA system built from
// cfg and returns the result.
func runTechKernel(t *testing.T, cfg Config, kernel string, stride uint32, align int, elements uint32) Result {
	t.Helper()
	k, err := KernelByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	p := PaperParams(stride, align)
	if elements != 0 {
		p.Elements = elements
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(k.Build(p))
	if err != nil {
		t.Fatalf("%s stride %d on %s: %v", kernel, stride, cfg.Tech, err)
	}
	return res
}

// TestTechZeroValueMapsToSDRAM: the zero-value tech selection — and the
// explicit "sdram" spelling — are the seed configuration. Cycles and
// statistics must match a plain DefaultConfig run exactly.
func TestTechZeroValueMapsToSDRAM(t *testing.T) {
	for _, kn := range []string{"copy", "vaxpy"} {
		for _, stride := range []uint32{1, 19} {
			want := runTechKernel(t, DefaultConfig(), kn, stride, 2, 256)
			for _, cfg := range []Config{
				techConfig("", 0, 0),
				techConfig("sdram", 0, 0),
				techConfig("sdram", 1, 1),
			} {
				got := runTechKernel(t, cfg, kn, stride, 2, 256)
				if got.Cycles != want.Cycles || got.Stats != want.Stats {
					t.Fatalf("%s stride %d tech %q: (%d cycles, %+v), default (%d cycles, %+v)",
						kn, stride, cfg.Tech, got.Cycles, got.Stats, want.Cycles, want.Stats)
				}
			}
		}
	}
}

// TestTechValidateRejections: illegal tech selections fail Validate (and
// therefore NewSystem) with an error, not a silent fallback.
func TestTechValidateRejections(t *testing.T) {
	bad := []Config{
		techConfig("sdram", 2, 0),  // subarrays need salp
		techConfig("", 0, 4),       // partitions need pcm
		techConfig("salp", 4, 2),   // salp has no partitions
		techConfig("salp", 3, 0),   // non-power-of-two subarrays
		techConfig("pcm", 2, 0),    // pcm has no subarrays
		techConfig("pcm", 0, 6),    // non-power-of-two partitions
		techConfig("rambus", 0, 0), // unknown technology
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d (%q/%d/%d): Validate accepted an illegal selection",
				i, cfg.Tech, cfg.SubarraysPerBank, cfg.Partitions)
		}
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("case %d (%q/%d/%d): NewSystem accepted an illegal selection",
				i, cfg.Tech, cfg.SubarraysPerBank, cfg.Partitions)
		}
	}
	good := []Config{
		techConfig("salp", 0, 0), // defaults to one subarray
		techConfig("salp", 8, 1),
		techConfig("pcm", 1, 8),
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("case %d (%q/%d/%d): Validate rejected a legal selection: %v",
				i, cfg.Tech, cfg.SubarraysPerBank, cfg.Partitions, err)
		}
	}
}

// TestSALPSingleSubarrayCycleIdentical is the metamorphic pin: SALP
// degenerates to plain SDRAM at one subarray per bank — cycle- and
// stat-identical on every cell of a kernel grid, so the subarray
// machinery provably adds nothing when it has nothing to overlap.
func TestSALPSingleSubarrayCycleIdentical(t *testing.T) {
	for _, kn := range []string{"copy", "swap", "vaxpy", "tridiag"} {
		for _, stride := range []uint32{1, 4, 19} {
			for align := 0; align < AlignmentCount; align++ {
				want := runTechKernel(t, DefaultConfig(), kn, stride, align, 256)
				got := runTechKernel(t, techConfig("salp", 1, 0), kn, stride, align, 256)
				if got.Cycles != want.Cycles || got.Stats != want.Stats {
					t.Fatalf("%s stride %d align %d: salp-1 (%d cycles, %+v), sdram (%d cycles, %+v)",
						kn, stride, align, got.Cycles, got.Stats, want.Cycles, want.Stats)
				}
			}
		}
	}
}

// TestSALPFewerRowConflicts is the headline SALP acceptance: at four
// subarrays per internal bank, the strided kernels that thrash rows on
// plain SDRAM must see strictly fewer row-conflict precharges — the
// XOR-fold subarray mapping separates the conflicting row pairs.
func TestSALPFewerRowConflicts(t *testing.T) {
	var sdramTotal, salpTotal uint64
	for _, kn := range []string{"vaxpy", "tridiag", "swap"} {
		for _, stride := range []uint32{4, 16, 19} {
			sd := runTechKernel(t, DefaultConfig(), kn, stride, 2, 0)
			sa := runTechKernel(t, techConfig("salp", 4, 0), kn, stride, 2, 0)
			sdramTotal += sd.Stats.RowConflicts
			salpTotal += sa.Stats.RowConflicts
			if sa.Stats.RowConflicts > sd.Stats.RowConflicts {
				t.Errorf("%s stride %d: salp-4 has %d row conflicts, sdram only %d",
					kn, stride, sa.Stats.RowConflicts, sd.Stats.RowConflicts)
			}
		}
	}
	if sdramTotal == 0 {
		t.Fatal("sdram shows no row conflicts on the strided kernels; test has lost its signal")
	}
	if salpTotal >= sdramTotal {
		t.Fatalf("salp-4 row conflicts (%d) not below sdram (%d)", salpTotal, sdramTotal)
	}
}

// TestPCMWriteAsymmetry: the PCM back end's defining behaviours — writes
// far slower than reads (per-operation write latency above per-operation
// read latency), partition stalls while write occupancy blocks a
// partition, and a write-heavy kernel slower than on SDRAM.
func TestPCMWriteAsymmetry(t *testing.T) {
	sd := runTechKernel(t, DefaultConfig(), "copy", 16, 2, 0)
	pc := runTechKernel(t, techConfig("pcm", 0, 4), "copy", 16, 2, 0)
	if pc.Cycles <= sd.Cycles {
		t.Errorf("pcm copy took %d cycles, sdram %d; slow writes should cost time", pc.Cycles, sd.Cycles)
	}
	if pc.Stats.PartitionStalls == 0 {
		t.Error("pcm run recorded no partition stalls")
	}
	s := pc.Stats
	if s.SDRAMReads == 0 || s.SDRAMWrites == 0 {
		t.Fatalf("copy kernel issued %d reads, %d writes", s.SDRAMReads, s.SDRAMWrites)
	}
	readPer := float64(s.ReadLatencyCycles) / float64(s.SDRAMReads)
	writePer := float64(s.WriteLatencyCycles) / float64(s.SDRAMWrites)
	if writePer <= readPer {
		t.Errorf("pcm per-op write latency %.2f not above read latency %.2f", writePer, readPer)
	}
	// SDRAM's latency split stays symmetric: one device cycle per write.
	if got := float64(sd.Stats.WriteLatencyCycles) / float64(sd.Stats.SDRAMWrites); got != 1 {
		t.Errorf("sdram per-op write latency = %.2f, want 1", got)
	}
}

// techGrid is the back-end ladder the cross-path equivalence suite runs.
func techGrid() []Config {
	return []Config{
		techConfig("sdram", 0, 0),
		techConfig("salp", 2, 0),
		techConfig("salp", 4, 0),
		techConfig("pcm", 0, 4),
	}
}

// TestTechStreamingEquivalence: on every back end, a trace issued one
// command at a time through a streaming Session takes exactly the cycles
// and statistics Run(Trace) reports, and a copy-on-write clone replays
// the run bit-identically.
func TestTechStreamingEquivalence(t *testing.T) {
	k, err := KernelByName("swap")
	if err != nil {
		t.Fatal(err)
	}
	p := PaperParams(19, 3)
	p.Elements = 128
	tr := k.Build(p)
	for _, cfg := range techGrid() {
		label := fmt.Sprintf("%s/%d/%d", cfg.Tech, cfg.SubarraysPerBank, cfg.Partitions)
		icfg, err := cfg.toInternal()
		if err != nil {
			t.Fatal(err)
		}
		batchSys, err := pvaunit.New(icfg)
		if err != nil {
			t.Fatal(err)
		}
		clone := batchSys.Clone()
		want, err := batchSys.Run(tr)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		streamSys, err := pvaunit.New(icfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := runSession(streamSys, tr)
		if err != nil {
			t.Fatalf("%s: streaming: %v", label, err)
		}
		if got.Cycles != want.Cycles || got.Stats != want.Stats {
			t.Errorf("%s: streaming (%d cycles, %+v), batch (%d cycles, %+v)",
				label, got.Cycles, got.Stats, want.Cycles, want.Stats)
		}
		cres, err := clone.Run(tr)
		if err != nil {
			t.Fatalf("%s: clone: %v", label, err)
		}
		if cres.Cycles != want.Cycles || cres.Stats != want.Stats {
			t.Errorf("%s: clone (%d cycles, %+v), source (%d cycles, %+v)",
				label, cres.Cycles, cres.Stats, want.Cycles, want.Stats)
		}
	}
}

// TestTechFaultEquivalence: fault injection composes with every back
// end — an ECC/bus-fault run still converges to the reference image, so
// scrub replays and retries survive the device-model swap.
func TestTechFaultEquivalence(t *testing.T) {
	k, err := KernelByName("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	p := PaperParams(8, 2)
	p.Elements = 128
	tr := k.Build(p)
	for _, cfg := range techGrid() {
		cfg.FaultPlan = FaultPlan{Seed: 42, BitFlipRate: 0.01, DropRate: 0.005}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, sys, tr)
	}
}
