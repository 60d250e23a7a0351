package pva

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// seedPoint mirrors one row of testdata/seed_cycles.json: the cycle
// counts of the full paper sweep measured on the single-channel seed
// implementation, before the multi-channel refactor landed.
type seedPoint struct {
	Kernel string `json:"kernel"`
	Stride uint32 `json:"stride"`
	Align  int    `json:"align"`
	System string `json:"system"`
	Cycles uint64 `json:"cycles"`
}

// TestSeedCycleEquivalence replays the full paper sweep (every kernel,
// stride, alignment, and system at 1024 elements) and demands
// bit-identical cycle counts against the golden file captured from the
// pre-refactor single-channel implementation. This is the contract the
// channelized front end must honor: Channels=1 with the default word
// interleave IS the paper's machine, cycle for cycle.
func TestSeedCycleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1024-element sweep")
	}
	raw, err := os.ReadFile("testdata/seed_cycles.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []seedPoint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	points, err := SweepWithOptions(Grid{}, SweepOptions{Elements: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(want) {
		t.Fatalf("sweep produced %d points, golden file has %d", len(points), len(want))
	}
	// Both the golden generator and SweepWithOptions emit the planner's
	// canonical order, so rows pair up index for index.
	for i, w := range want {
		p := points[i]
		if p.Kernel != w.Kernel || p.Stride != w.Stride || p.Alignment != w.Align || p.System.String() != w.System {
			t.Fatalf("row %d: got (%s, %d, %d, %s), golden (%s, %d, %d, %s)",
				i, p.Kernel, p.Stride, p.Alignment, p.System, w.Kernel, w.Stride, w.Align, w.System)
		}
		if p.Cycles != w.Cycles {
			t.Errorf("%s stride %d align %d on %s: %d cycles, seed had %d",
				w.Kernel, w.Stride, w.Align, w.System, p.Cycles, w.Cycles)
		}
	}
}

// TestExplicitDecoderMatchesDefault checks that spelling the default out
// (Channels=1, AddrMap "word") changes nothing: the explicitly decoded
// system must reproduce the implicit configuration's cycle counts.
func TestExplicitDecoderMatchesDefault(t *testing.T) {
	for _, kn := range []string{"copy", "vaxpy"} {
		for _, stride := range []uint32{1, 4, 19} {
			k, err := KernelByName(kn)
			if err != nil {
				t.Fatal(err)
			}
			p := PaperParams(stride, 0)
			p.Elements = 256
			tr := k.Build(p)

			run := func(c Config) uint64 {
				t.Helper()
				sys, err := NewSystem(c)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run(tr)
				if err != nil {
					t.Fatal(err)
				}
				return res.Cycles
			}
			implicit := run(DefaultConfig())
			explicit := run(Config{Channels: 1, AddrMap: "word"})
			if implicit != explicit {
				t.Errorf("%s stride %d: implicit %d cycles, explicit decoder %d", kn, stride, implicit, explicit)
			}
		}
	}
}

// TestMultiChannelDifferential runs the evaluation kernels on every
// system at 2 and 4 channels under each decoder, verifying every point
// against the functional reference: whatever the decode function does to
// the timing, the data movement must stay exactly right.
func TestMultiChannelDifferential(t *testing.T) {
	for _, channels := range []uint32{2, 4} {
		for _, am := range []string{"word", "line", "xor"} {
			t.Run(fmt.Sprintf("C%d_%s", channels, am), func(t *testing.T) {
				_, err := SweepWithOptions(
					Grid{Kernels: []string{"copy", "tridiag", "vaxpy"}, Strides: []uint32{1, 2, 19}},
					SweepOptions{Elements: 128, Verify: true, Channels: channels, AddrMap: am},
				)
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestMultiChannelTraceDifferential drives the fuzz corpus seed traces
// (dependent gather-compute-scatter chains included) through the
// multi-channel PVA under each decoder and compares against the
// reference word for word.
func TestMultiChannelTraceDifferential(t *testing.T) {
	var corpus [][]byte
	for _, s := range []uint32{0, 1, 2, 3, 4, 8, 16, 19, 32, 48, 1 << 16, 19 << 10} {
		corpus = append(corpus, append(seedCmd(0, 64, s, 31), seedCmd(1, 96, s, 31)...))
	}
	corpus = append(corpus, append(append(seedCmd(0, 0, 19, 31), seedCmd(3, 1<<20, 4, 15)...), seedCmd(0, 1<<20, 4, 15)...))
	corpus = append(corpus, append(seedCmd(1, 128, 0, 31), seedCmd(0, 128, 0, 7)...))

	for _, channels := range []uint32{2, 4} {
		for _, am := range []string{"word", "line", "xor"} {
			t.Run(fmt.Sprintf("C%d_%s", channels, am), func(t *testing.T) {
				for _, data := range corpus {
					tr, ok := parseFuzzTrace(data, true)
					if !ok {
						continue
					}
					cfg := DefaultConfig()
					cfg.Channels = channels
					cfg.AddrMap = am
					sys, err := NewSystem(cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstReference(t, sys, tr)
				}
			})
		}
	}
}

// TestChannelScalingExperiment runs the cmd/sweep channel-scaling
// experiment in miniature and sanity-checks the physics: at unit stride
// the word-interleaved channels split every vector evenly, so four
// channels must beat one by a wide margin. The report's channel table
// must show the single-channel column as the baseline (speedup exactly
// 1).
func TestChannelScalingExperiment(t *testing.T) {
	points, err := SweepWithOptions(Grid{Kernels: []string{"copy"}, Strides: []uint32{1},
		Systems: []SystemKind{PVASDRAM}, Channels: []uint32{1, 2, 4}}, SweepOptions{Elements: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3*AlignmentCount {
		t.Fatalf("got %d points, want %d", len(points), 3*AlignmentCount)
	}
	best := map[uint32]uint64{}
	for _, p := range points {
		if b, ok := best[p.Channels]; !ok || p.Cycles < b {
			best[p.Channels] = p.Cycles
		}
	}
	if best[2] >= best[1] {
		t.Errorf("2 channels (%d cycles) not faster than 1 (%d)", best[2], best[1])
	}
	if best[4] >= best[2] {
		t.Errorf("4 channels (%d cycles) not faster than 2 (%d)", best[4], best[2])
	}
	if s := float64(best[1]) / float64(best[4]); s < 1.5 {
		t.Errorf("4-channel speedup %.2fx, want at least 1.5x at unit stride", s)
	}
	var buf bytes.Buffer
	Figures(&buf, points)
	want := fmt.Sprintf("copy %8d %18s %18s %18s %18s", 1, "pva-sdram", fmt.Sprintf("%d (1.00x)", best[1]),
		fmt.Sprintf("%d (%.2fx)", best[2], float64(best[1])/float64(best[2])),
		fmt.Sprintf("%d (%.2fx)", best[4], float64(best[1])/float64(best[4])))
	if !strings.Contains(buf.String(), want) {
		t.Errorf("channel table lacks the row %q:\n%s", want, buf.String())
	}
}

// TestUnknownAddrMapRejected locks the error path: a typo'd decoder name
// must fail loudly at construction, not fall back to word interleave.
func TestUnknownAddrMapRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AddrMap = "sudoku"
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("NewSystem accepted unknown addrmap")
	}
	if _, err := SweepWithOptions(Grid{Kernels: []string{"copy"}, Strides: []uint32{1}}, SweepOptions{Channels: 2, AddrMap: "sudoku"}); err == nil {
		t.Fatal("Sweep accepted unknown addrmap")
	}
}

// TestTxnPoolScanNoDeadlock pins the multi-channel transaction-pool
// scan. When all eight transaction IDs are outstanding, a channel's
// broadcast scan must skip the commands that are not yet issued and
// keep going: a younger issued command may still need that channel's
// broadcast before any ID can retire. A scan that stopped at the oldest
// unissued command deadlocked every cell below, so each must complete
// under the watchdog, match the functional reference, and take exactly
// the pinned cycles.
func TestTxnPoolScanNoDeadlock(t *testing.T) {
	cells := []struct {
		channels uint32
		addrMap  string
		tech     string // "", "salp" (4 subarrays) or "pcm" (4 partitions)
		kernel   string
		stride   uint32
		align    int
		system   SystemKind
		cycles   uint64
	}{
		{2, "word", "", "spmv", 1, 3, PVASRAM, 1818},
		{2, "word", "", "spmv", 1, 3, PVASDRAM, 1840},
		{2, "word", "pcm", "spmv", 4, 4, PVASDRAM, 1932},
		{2, "xor", "", "spmv", 1, 4, PVASDRAM, 1880},
		{2, "xor", "pcm", "spmv", 1, 4, PVASDRAM, 1880},
		{2, "xor", "pcm", "spmv", 4, 4, PVASDRAM, 1939},
		{4, "line", "pcm", "spmv", 16, 1, PVASDRAM, 1042},
		{4, "line", "pcm", "spmv", 19, 3, PVASDRAM, 1058},
		{4, "word", "pcm", "gather", 16, 1, PVASDRAM, 2316},
		{4, "word", "", "spmv", 1, 3, PVASRAM, 1170},
		{4, "word", "", "spmv", 1, 4, PVASRAM, 1193},
		{4, "word", "", "spmv", 8, 0, PVASRAM, 1182},
		{4, "word", "", "spmv", 19, 2, PVASRAM, 1174},
		{4, "word", "salp", "spmv", 1, 3, PVASDRAM, 1192},
		{4, "word", "pcm", "spmv", 1, 4, PVASDRAM, 1227},
		{4, "word", "pcm", "spmv", 8, 0, PVASDRAM, 1224},
		{4, "xor", "", "spmv", 1, 4, PVASRAM, 1193},
		{4, "xor", "", "spmv", 2, 4, PVASRAM, 1174},
		{4, "xor", "salp", "spmv", 8, 0, PVASDRAM, 1195},
		{4, "xor", "pcm", "spmv", 1, 3, PVASDRAM, 1196},
		{4, "xor", "pcm", "spmv", 1, 4, PVASDRAM, 1241},
		{4, "xor", "pcm", "spmv", 2, 4, PVASDRAM, 1218},
	}
	for _, c := range cells {
		o := SweepOptions{Channels: c.channels, AddrMap: c.addrMap, Tech: c.tech, Verify: true, Watchdog: 10_000}
		switch c.tech {
		case "salp":
			o.Subarrays = 4
		case "pcm":
			o.Partitions = 4
		}
		name := fmt.Sprintf("%s stride %d align %d on %s, %d channels, %s, %q",
			c.kernel, c.stride, c.align, c.system, c.channels, c.addrMap, c.tech)
		pt, err := RunKernelWithOptions(c.system, c.kernel, PaperParams(c.stride, c.align), o)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if pt.Cycles != c.cycles {
			t.Errorf("%s: %d cycles, want %d", name, pt.Cycles, c.cycles)
		}
	}
}
