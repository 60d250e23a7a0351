package pva

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(Trace{Cmds: []VectorCmd{{
		Op: Read,
		V:  Vector{Base: 0, Stride: 19, Length: 32},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || len(res.ReadData[0]) != 32 {
		t.Fatalf("cycles=%d data=%d words", res.Cycles, len(res.ReadData[0]))
	}
}

func TestAllConstructors(t *testing.T) {
	for name, mk := range map[string]func() (System, error){
		"pva-sdram": func() (System, error) { return NewSystem(Config{}) },
		"pva-sram":  func() (System, error) { return NewSRAMSystem(Config{}) },
		"cacheline": func() (System, error) { return NewCacheLineSerial(), nil },
		"gathering": func() (System, error) { return NewGatheringSerial(), nil },
		"reference": func() (System, error) { return Reference(), nil },
	} {
		sys, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := sys.Run(Trace{Cmds: []VectorCmd{{Op: Read, V: Vector{Base: 0, Stride: 4, Length: 8}}}}); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
	}
}

func TestConfigPolicies(t *testing.T) {
	for _, pol := range []string{"", "paper", "fcfs"} {
		if _, err := NewSystem(Config{Policy: pol}); err != nil {
			t.Errorf("policy %q: %v", pol, err)
		}
	}
	for _, rp := range []string{"", "manage-row", "closed-page", "open-page", "hotrow"} {
		if _, err := NewSystem(Config{RowPolicy: rp}); err != nil {
			t.Errorf("row policy %q: %v", rp, err)
		}
	}
	spus := []string{"paper", "fcfs"}
	rows := []string{"manage-row", "closed-page", "open-page", "hotrow"}
	for _, c := range []struct {
		cfg   Config
		valid []string
	}{
		{Config{Policy: "edf"}, spus},
		{Config{Policy: "shortest-job"}, spus},
		{Config{Policy: "nope"}, spus},
		{Config{RowPolicy: "nope"}, rows},
	} {
		_, err := NewSystem(c.cfg)
		for name, err := range map[string]error{"Validate": c.cfg.Validate(), "NewSystem": err} {
			if err == nil {
				t.Errorf("%s accepted policy %q, row policy %q", name, c.cfg.Policy, c.cfg.RowPolicy)
				continue
			}
			for _, v := range c.valid {
				if !strings.Contains(err.Error(), v) {
					t.Errorf("%s error %q does not list %q", name, err, v)
				}
			}
		}
	}
	if _, err := NewSystem(Config{Banks: 3}); err == nil {
		t.Error("bank count 3 accepted")
	}
}

func TestPolicyAblationRuns(t *testing.T) {
	// Every scheduling/row policy combination must still produce correct
	// data (cycle counts may differ).
	trace := Trace{Cmds: []VectorCmd{
		{Op: Read, V: Vector{Base: 0, Stride: 7, Length: 32}},
		{Op: Write, V: Vector{Base: 1 << 16, Stride: 7, Length: 32}, DependsOn: []int{0},
			Compute: func(d [][]uint32) []uint32 { return d[0] }},
		{Op: Read, V: Vector{Base: 1 << 16, Stride: 7, Length: 32}, DependsOn: []int{1}},
	}}
	want, err := Reference().Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"paper", "fcfs"} {
		for _, rp := range []string{"manage-row", "closed-page", "open-page", "hotrow"} {
			sys, err := NewSystem(Config{Policy: pol, RowPolicy: rp})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sys.Run(trace)
			if err != nil {
				t.Fatalf("%s/%s: %v", pol, rp, err)
			}
			for j := range want.ReadData[2] {
				if got.ReadData[2][j] != want.ReadData[2][j] {
					t.Fatalf("%s/%s: wrong data at word %d", pol, rp, j)
				}
			}
		}
	}
}

// TestAblationCycles pins the ablation numbers EXPERIMENTS.md quotes:
// the four row policies on single-bank, row-conflicting saxpy, the two
// SPUs tying on vaxpy stride 8, and a cell where FCFS beats the paper
// SPU (row ops there win the slot over a ready access).
func TestAblationCycles(t *testing.T) {
	for _, c := range []struct {
		kernel, policy, rowPolicy string
		stride                    uint32
		align                     int
		elements                  uint32
		cycles                    uint64
	}{
		{"saxpy", "", "manage-row", 16, 4, 1024, 3408},
		{"saxpy", "", "closed-page", 16, 4, 1024, 12154},
		{"saxpy", "", "open-page", 16, 4, 1024, 3380},
		{"saxpy", "", "hotrow", 16, 4, 1024, 3386},
		{"vaxpy", "paper", "", 8, 0, 1024, 2888},
		{"vaxpy", "fcfs", "", 8, 0, 1024, 2888},
		{"vaxpy", "paper", "", 1, 3, 256, 639},
		{"vaxpy", "fcfs", "", 1, 3, 256, 634},
	} {
		sys, err := NewSystem(Config{Policy: c.policy, RowPolicy: c.rowPolicy})
		if err != nil {
			t.Fatal(err)
		}
		k, err := KernelByName(c.kernel)
		if err != nil {
			t.Fatal(err)
		}
		p := PaperParams(c.stride, c.align)
		p.Elements = c.elements
		res, err := sys.Run(k.Build(p))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != c.cycles {
			t.Errorf("%s stride %d align %d (%d elements) under %q/%q: %d cycles, want %d",
				c.kernel, c.stride, c.align, c.elements, c.policy, c.rowPolicy, res.Cycles, c.cycles)
		}
	}
}

func TestRunKernelAPI(t *testing.T) {
	p := PaperParams(19, 0)
	p.Elements = 128
	pt, err := RunKernel(PVASDRAM, "copy", p)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Cycles == 0 || pt.Kernel != "copy" {
		t.Fatalf("point = %+v", pt)
	}
	if _, err := RunKernel(PVASDRAM, "nope", p); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestRunKernelRejectsBadParams: parameters no trace can be built from
// are an error from RunKernelWithOptions, never a builder panic.
func TestRunKernelRejectsBadParams(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*KernelParams)
	}{
		{"align 7", func(p *KernelParams) { p.Alignment = 7 }},
		{"stride 0", func(p *KernelParams) { p.Stride = 0 }},
		{"100 elements", func(p *KernelParams) { p.Elements = 100 }},
	} {
		p := PaperParams(1, 0)
		p.Elements = 64
		c.edit(&p)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", c.name, r)
				}
			}()
			for _, o := range []SweepOptions{{}, {Retries: 1}} {
				if _, err := RunKernelWithOptions(PVASDRAM, "copy", p, o); err == nil {
					t.Errorf("%s (%+v): accepted", c.name, o)
				}
			}
		}()
	}
}

func TestSweepAndFigures(t *testing.T) {
	points, err := Sweep([]string{"vaxpy"}, []uint32{1, 19}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Figures(&buf, points)
	out := buf.String()
	for _, want := range []string{"vaxpy", "headline", "pva-sdram", "alignment"} {
		if !strings.Contains(out, want) {
			t.Errorf("figures output missing %q", want)
		}
	}
}

func TestKernelsExported(t *testing.T) {
	if len(Kernels()) != 8 {
		t.Errorf("expected 8 kernels, got %d", len(Kernels()))
	}
	if _, err := KernelByName("tridiag"); err != nil {
		t.Error(err)
	}
	if len(PaperStrides()) != 6 {
		t.Error("expected 6 paper strides")
	}
	if AlignmentCount != 5 {
		t.Error("expected 5 alignments")
	}
	if AlignmentName(0) == "" {
		t.Error("empty alignment name")
	}
}

func TestExtensionsAPI(t *testing.T) {
	// Bit reversal.
	if BitReverse(1, 4) != 8 {
		t.Error("BitReverse broken")
	}
	a := AnalyzeBitRev(BitRevAddresses(0, 8, 1), 32, func(x uint32) uint32 { return x % 16 })
	if a.Chunks != 8 {
		t.Errorf("analysis chunks = %d", a.Chunks)
	}
	// Complexity.
	est, err := Complexity(PaperComplexityParams())
	if err != nil {
		t.Fatal(err)
	}
	if est.StagingRAMBytes != 2048 {
		t.Errorf("staging RAM = %d", est.StagingRAMBytes)
	}
}

func TestVCWindowAblation(t *testing.T) {
	// A one-context window must still be correct, merely slower or equal.
	var cmds []VectorCmd
	for k := uint32(0); k < 8; k++ {
		cmds = append(cmds, VectorCmd{Op: Read, V: Vector{Base: k * 4096, Stride: 16, Length: 32}})
	}
	trace := Trace{Cmds: cmds}
	narrow, err := NewSystem(Config{VCWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewSystem(Config{VCWindow: 4})
	if err != nil {
		t.Fatal(err)
	}
	rn, err := narrow.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := wide.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	// Row-management noise can move single cycles either way; the wide
	// window must never lose by more than that noise.
	if rn.Cycles+4 < rw.Cycles {
		t.Errorf("narrow window (%d cycles) clearly beat wide window (%d)", rn.Cycles, rw.Cycles)
	}
	t.Logf("VC window 1: %d cycles, window 4: %d cycles", rn.Cycles, rw.Cycles)
}
