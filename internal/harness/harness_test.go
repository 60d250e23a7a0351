package harness

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pva/internal/kernels"
	"pva/internal/memsys"
)

// quick is a fast sweep configuration: short vectors, verification on.
var quick = Runner{Elements: 128, Verify: true}

func TestRunPointAllSystems(t *testing.T) {
	k, _ := kernels.ByName("copy")
	for _, sys := range AllSystems() {
		p, err := quick.RunPoint(k, 19, 0, sys)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if p.Cycles == 0 && sys != PVASRAM {
			t.Errorf("%s: zero cycles", sys)
		}
		t.Logf("%s: %d cycles", sys, p.Cycles)
	}
}

// TestRunPointPanickingBuild checks that a single point whose kernel
// builder panics returns an error naming the cell instead of crashing
// the caller, and that a retry policy reaches the single point too.
func TestRunPointPanickingBuild(t *testing.T) {
	bomb := kernels.Kernel{Name: "bomb", Vectors: 1, Build: func(kernels.Params) memsys.Trace {
		panic("builder exploded")
	}}
	for _, sys := range AllSystems() {
		_, err := quick.RunPoint(bomb, 4, 1, sys)
		want := fmt.Sprintf("bomb stride 4 align 1 on %s at 1 ch", sys)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "builder exploded") {
			t.Errorf("%s: got %v, want an error naming %q and the panic", sys, err, want)
		}
	}
	flaky, calls := bombKernel("flaky", 2)
	r := quick
	r.Retries = 1
	if _, err := r.RunPoint(flaky, 4, 1, PVASDRAM); err != nil || calls.Load() != 2 {
		t.Errorf("a builder that panics once: err %v after %d builds, want success on the retry", err, calls.Load())
	}
}

func TestSweepSmallVerified(t *testing.T) {
	points, err := quick.Sweep(Grid{Kernels: []string{"copy", "scale"}, Strides: []uint32{1, 8, 19}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 3 * kernels.Alignments * len(AllSystems())
	if len(points) != want {
		t.Fatalf("sweep produced %d points, want %d", len(points), want)
	}
}

func TestCollateRanges(t *testing.T) {
	points := []Point{
		{Kernel: "k", Stride: 1, Alignment: 0, System: PVASDRAM, Cycles: 20},
		{Kernel: "k", Stride: 1, Alignment: 1, System: PVASDRAM, Cycles: 30},
		{Kernel: "k", Stride: 1, Alignment: 2, System: PVASDRAM, Cycles: 10},
		{Kernel: "k", Stride: 1, Alignment: 3, System: PVASDRAM, Cycles: 10},
		{Kernel: "k", Stride: 1, Alignment: 0, System: PVASDRAM, Tech: "pcm-4p", Cycles: 50},
		{Kernel: "k", Stride: 1, Alignment: 0, System: PVASDRAM, Channels: 2, Cycles: 5},
	}
	coll := Collate(points)
	if len(coll) != 3 {
		t.Fatalf("%d collated cells, want one per back end and channel count", len(coll))
	}
	r := coll[Key{Kernel: "k", Stride: 1, System: PVASDRAM}]
	if r.Min != 10 || r.Max != 30 || r.Best.Alignment != 2 {
		t.Fatalf("range = %+v, want 10..30 with the first fastest alignment, 2", r)
	}
}

// TestPaperTrends checks the qualitative shapes of Figures 7-10 on a
// reduced sweep: the relationships that must hold for the reproduction
// to be faithful.
func TestPaperTrends(t *testing.T) {
	r := Runner{Elements: 256}
	points, err := r.Sweep(Grid{Kernels: []string{"copy", "scale"}, Strides: []uint32{1, 4, 16, 19}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	coll := Collate(points)
	for _, kernel := range []string{"copy", "scale"} {
		at := func(s uint32, sys SystemKind) Range {
			return coll[Key{Kernel: kernel, Stride: s, System: sys, Channels: 1}]
		}
		// (1) Unit stride: cache-line serial is close to the PVA
		// (paper: 100-109% of PVA time).
		pva1 := at(1, PVASDRAM).Min
		cl1 := at(1, CacheLineSerial).Min
		if ratio := float64(cl1) / float64(pva1); ratio < 0.8 || ratio > 1.6 {
			t.Errorf("%s stride 1: cacheline/pva = %.2f, expected near parity", kernel, ratio)
		}
		// (2) The cache-line system degrades sharply with stride.
		cl16 := at(16, CacheLineSerial).Min
		pva16 := at(16, PVASDRAM).Min
		if float64(cl16)/float64(pva16) < 3 {
			t.Errorf("%s stride 16: cacheline only %.1fx PVA, expected >3x",
				kernel, float64(cl16)/float64(pva16))
		}
		// (3) Prime stride 19 restores full parallelism: PVA near its
		// unit-stride time, cache-line system at its worst.
		pva19 := at(19, PVASDRAM).Min
		if float64(pva19) > 1.4*float64(pva1) {
			t.Errorf("%s: stride-19 PVA %d much slower than unit stride %d", kernel, pva19, pva1)
		}
		cl19 := at(19, CacheLineSerial).Min
		if float64(cl19)/float64(pva19) < 10 {
			t.Errorf("%s stride 19: cacheline only %.1fx PVA, expected >10x",
				kernel, float64(cl19)/float64(pva19))
		}
		// (4) PVA stride 16 (single bank) is its worst stride.
		for _, s := range []uint32{1, 4, 19} {
			if at(s, PVASDRAM).Min > pva16 {
				t.Errorf("%s: stride %d slower than stride 16 on PVA", kernel, s)
			}
		}
		// (5) Gathering serial is stride-invariant and slower than PVA
		// at full parallelism.
		g1 := at(1, GatheringSerial).Min
		g19 := at(19, GatheringSerial).Min
		if g1 != g19 {
			t.Errorf("%s: gathering serial varies with stride (%d vs %d)", kernel, g1, g19)
		}
		if float64(g19)/float64(pva19) < 1.2 {
			t.Errorf("%s stride 19: gathering/pva = %.2f, expected PVA clearly faster",
				kernel, float64(g19)/float64(pva19))
		}
	}
}

// TestSDRAMTracksSRAM checks the Figure 11 claim on a reduced vaxpy
// sweep: PVA SDRAM stays within a modest factor of idealized SRAM.
func TestSDRAMTracksSRAM(t *testing.T) {
	r := Runner{Elements: 256}
	points, err := r.Sweep(Grid{Kernels: []string{"vaxpy"}, Strides: []uint32{1, 4, 16, 19}, Systems: []SystemKind{PVASDRAM, PVASRAM}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	worst := SDRAMvsSRAMWorst(points)
	if worst > 1.5 {
		t.Errorf("SDRAM/SRAM worst ratio %.2f, paper claims <= ~1.15", worst)
	}
	t.Logf("worst PVA-SDRAM/PVA-SRAM ratio: %.3f", worst)
}

// TestRenderers renders one-machine grids' figures through Report; the
// cmd/sweep goldens pin the full text of the paper grid byte for byte.
// A grid draws only the kernels and strides it spans: an indexed-only
// grid prints no dense-kernel chart, no Figure 11 and no headline the
// paper makes for its strided kernels.
func TestRenderers(t *testing.T) {
	for _, c := range []struct {
		name          string
		kernels       []string
		strides       []uint32
		want, without []string
	}{
		{
			name:    "vaxpy",
			kernels: []string{"vaxpy"},
			strides: []uint32{1, 19},
			want: []string{
				"vaxpy — execution cycles by stride", // stride chart
				"pva-sdram",
				"stride 19 — normalized execution time", // kernel chart
				"aligned", // alignment detail
				"32.8x",   // headlines
			},
			without: []string{"copy —", "stride 4 —"},
		},
		{
			name:    "indexed-only",
			kernels: []string{"gather", "spmv"},
			strides: []uint32{4},
			want: []string{
				"gather — execution cycles by stride",
				"spmv — execution cycles by stride",
				"stride 4 — normalized execution time",
			},
			without: []string{"copy —", "vaxpy —", "0..0", "stride 1 —", "headline", "32.8x", "100-109%"},
		},
		{
			name:    "mixed",
			kernels: []string{"scale", "scatter"},
			strides: []uint32{1},
			want:    []string{"scale — execution", "scatter — execution", "at scale stride 1", "100-109%"},
			without: []string{"at scatter", "vaxpy —"},
		},
	} {
		r := Runner{Elements: 128}
		points, err := r.Sweep(Grid{Kernels: c.kernels, Strides: c.strides}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		Report(&buf, points)
		for _, want := range c.want {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("%s: figures lack %q:\n%s", c.name, want, buf.String())
			}
		}
		for _, bad := range c.without {
			if strings.Contains(buf.String(), bad) {
				t.Errorf("%s: figures show %q:\n%s", c.name, bad, buf.String())
			}
		}
	}
}

// TestGridReportNamesEveryCell: a grid varying both machine axes
// reports every cell's minimum over alignments, each in the row of its
// kernel, stride, system and back end and the column of its channel
// count, so no axis value is dropped.
func TestGridReportNamesEveryCell(t *testing.T) {
	r := Runner{Elements: 128}
	chans := []uint32{1, 2}
	points, err := r.Sweep(Grid{Kernels: []string{"saxpy"}, Strides: []uint32{1, 16},
		Systems: []SystemKind{PVASDRAM, CacheLineSerial}, Channels: chans, Techs: []string{"sdram", "pcm-4p"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Report(&buf, points)
	lines := strings.Split(buf.String(), "\n")
	coll := Collate(points)
	if len(coll) != 2*2*3 {
		t.Fatalf("%d collated cells, want 12", len(coll))
	}
	for k, rg := range coll {
		name := k.System.String()
		if k.Tech != "" {
			name += "/" + k.Tech
		}
		prefix := fmt.Sprintf("%10s %8d %18s", k.Kernel, k.Stride, name)
		col := slices.Index(chans, k.Channels)
		found := false
		for _, l := range lines {
			if rest, ok := strings.CutPrefix(l, prefix); ok && len(rest) == 19*len(chans) {
				found = strings.HasPrefix(strings.TrimSpace(rest[19*col:19*(col+1)]), fmt.Sprintf("%d (", rg.Min))
			}
		}
		if !found {
			t.Errorf("report lacks %+v's minimum %d:\n%s", k, rg.Min, buf.String())
		}
	}
}

func TestHeadlines(t *testing.T) {
	r := Runner{Elements: 256}
	points, err := r.Sweep(Grid{Kernels: []string{"copy"}, Strides: []uint32{1, 19}, Channels: []uint32{1, 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := Headlines(Collate(points))
	if h.MaxVsCacheLine < 5 {
		t.Errorf("MaxVsCacheLine = %.1f, expected large speedup at stride 19", h.MaxVsCacheLine)
	}
	if h.MaxVsCacheLineAt.Stride != 19 {
		t.Errorf("best case at stride %d, want 19", h.MaxVsCacheLineAt.Stride)
	}
	if h.UnitStrideWorst <= 0 {
		t.Error("unit stride ratio not computed")
	}
}

func TestSystemNames(t *testing.T) {
	for _, k := range AllSystems() {
		sys, err := Runner{}.newSystem(k)
		if err != nil {
			t.Fatal(err)
		}
		if sys.Name() != k.String() {
			t.Errorf("system name %q != kind name %q", sys.Name(), k.String())
		}
	}
	if _, err := (Runner{}).newSystem(SystemKind(99)); err == nil {
		t.Error("unknown system kind accepted")
	}
}

func TestKernelsIn(t *testing.T) {
	points := []Point{{Kernel: "b"}, {Kernel: "a"}, {Kernel: "b"}}
	got := KernelsIn(points)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("KernelsIn = %v", got)
	}
}
