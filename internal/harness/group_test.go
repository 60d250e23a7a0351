package harness

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"pva/internal/core"
	"pva/internal/kernels"
	"pva/internal/memsys"
)

// cmdFields is the part of a command a system could modify in place.
type cmdFields struct {
	Op        memsys.Op
	V         core.Vector
	Idx       []uint32
	DependsOn []int
	Data      []uint32
}

func traceFields(t memsys.Trace) []cmdFields {
	out := make([]cmdFields, len(t.Cmds))
	for i, c := range t.Cmds {
		out[i] = cmdFields{c.Op, c.V, slices.Clone(c.Idx), slices.Clone(c.DependsOn), slices.Clone(c.Data)}
	}
	return out
}

// TestGroupSharedTraceUnmodified pins what lets a trace group share one
// trace: running a built trace through the reference, all four systems
// and a 2-channel pcm-4p pva-sdram leaves every command as built, and
// each system's result equals its run of a freshly built copy.
func TestGroupSharedTraceUnmodified(t *testing.T) {
	type maker struct {
		name string
		new  func() (memsys.System, error)
	}
	makers := []maker{{"reference", func() (memsys.System, error) { return memsys.NewReference(), nil }}}
	for _, k := range AllSystems() {
		makers = append(makers, maker{k.String(), func() (memsys.System, error) { return Runner{}.newSystem(k) }})
	}
	pcm := Runner{Channels: 2, Tech: "pcm", Partitions: 4}
	makers = append(makers, maker{"pva-sdram/pcm-4p at 2 ch", func() (memsys.System, error) { return pcm.newSystem(PVASDRAM) }})

	preset := func() memsys.Trace {
		line := make([]uint32, 32)
		for i := range line {
			line[i] = uint32(i) * 7
		}
		idx := make([]uint32, 32)
		for i := range idx {
			idx[i] = uint32(31-i) * 5
		}
		return memsys.Trace{Cmds: []memsys.VectorCmd{
			{Op: memsys.Read, V: core.Vector{Base: 1 << 22, Stride: 3, Length: 32}},
			{Op: memsys.Write, V: core.Vector{Base: 2 << 22, Stride: 1, Length: 32}, Data: line, DependsOn: []int{0}},
			{Op: memsys.Write, V: core.Vector{Base: 3 << 22, Length: 32}, Idx: idx, Data: slices.Clone(line)},
			{Op: memsys.Read, V: core.Vector{Base: 3 << 22, Length: 32}, Idx: slices.Clone(idx), DependsOn: []int{2}},
		}}
	}
	builds := map[string]func() memsys.Trace{"preset": preset}
	p := Runner{Elements: 64}.Params(19, 1)
	for _, k := range append(kernels.All(), kernels.Indexed()...) {
		builds[k.Name] = func() memsys.Trace { return k.Build(p) }
	}
	for name, build := range builds {
		shared := build()
		before := traceFields(shared)
		for _, m := range makers {
			sys, err := m.new()
			if err != nil {
				t.Fatal(err)
			}
			got, err := sys.Run(shared)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, m.name, err)
			}
			fresh, err := m.new()
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run(build())
			if err != nil {
				t.Fatalf("%s on a fresh %s: %v", name, m.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: the shared trace's result differs from a fresh trace's", name, m.name)
			}
		}
		if !reflect.DeepEqual(traceFields(shared), before) {
			t.Errorf("%s: running the trace modified its commands", name)
		}
	}
}

// TestGroupClaimingWorkerCounts runs a verified grid whose trace groups
// hold three cells (pva-sdram on two back ends, and pva-sram) at 1, 2
// and 3 workers: every worker count must give the same outcome, and no
// group's trace may be built more than once.
func TestGroupClaimingWorkerCounts(t *testing.T) {
	r := Runner{Elements: 64, Verify: true}
	jobs, err := r.plan(Grid{Kernels: []string{"copy", "gather"}, Strides: []uint32{1, 19},
		Systems: []SystemKind{PVASDRAM, PVASRAM}, Techs: []string{"sdram", "pcm-4p"}, Channels: []uint32{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	for i := range jobs {
		k := jobs[i].kernel
		jobs[i].kernel.Build = func(p kernels.Params) memsys.Trace {
			builds.Add(1)
			return k.Build(p)
		}
	}
	all := make([]int, len(jobs))
	for i := range all {
		all[i] = i
	}
	groups := traceGroups(jobs, all)
	for _, g := range groups {
		if len(g) != 3 {
			t.Fatalf("group %v holds %d cells, want 3", g, len(g))
		}
	}
	var want *Outcome
	for _, workers := range []int{1, 2, 3} {
		builds.Store(0)
		out, err := r.runJobs(jobs, workers, runConfig{isolate: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out.Failures) != 0 {
			t.Fatalf("workers=%d: %v", workers, out.Failures)
		}
		// A worker that claims two groups of one trace back to back (the
		// same grid point at two channel counts) may build it just once.
		if got := builds.Load(); got > int64(len(groups)) || (workers == 1 && got != int64(len(groups))) {
			t.Errorf("workers=%d: %d trace builds for %d groups", workers, got, len(groups))
		}
		if want == nil {
			want = out
		} else if !reflect.DeepEqual(out, want) {
			t.Errorf("workers=%d: outcome differs from one worker's", workers)
		}
	}
}

// TestGroupReplayedCellsLeftOut: journal-replayed cells drop out of
// their groups, and a group whose cells are all replayed vanishes.
func TestGroupReplayedCellsLeftOut(t *testing.T) {
	r := Runner{Elements: 64}
	jobs, err := r.plan(Grid{Kernels: []string{"copy"}, Strides: []uint32{1}})
	if err != nil {
		t.Fatal(err)
	}
	// Replayed: alignment 0's first two cells and all four of alignment 1's.
	todo := []int{2, 3}
	for i := 8; i < len(jobs); i++ {
		todo = append(todo, i)
	}
	groups := traceGroups(jobs, todo)
	want := [][]int{{2, 3}, {8, 9, 10, 11}, {12, 13, 14, 15}, {16, 17, 18, 19}}
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("groups %v, want %v", groups, want)
	}
}

// corrupting wraps a system and damages what it reports: Peek flips a
// bit of the word at each address in peek, and Run's result flips a bit
// of each (command, word) in gather and resizes the lines in resize to
// the given length, working on copies of the system's buffers.
type corrupting struct {
	memsys.System
	peek   map[uint32]bool
	gather map[[2]int]bool
	resize map[int]int
}

func (s corrupting) Peek(a uint32) uint32 {
	w := s.System.Peek(a)
	if s.peek[a] {
		w ^= 1
	}
	return w
}

func (s corrupting) Run(t memsys.Trace) (memsys.Result, error) {
	res, err := s.System.Run(t)
	if err != nil {
		return res, err
	}
	res.ReadData = slices.Clone(res.ReadData)
	for i, line := range res.ReadData {
		line = slices.Clone(line)
		for j := range line {
			if s.gather[[2]int{i, j}] {
				line[j] ^= 1
			}
		}
		if n, ok := s.resize[i]; ok {
			line = append(line, make([]uint32, max(0, n-len(line)))...)[:n]
		}
		res.ReadData[i] = line
	}
	return res, nil
}

// TestGroupVerifyCatchesCorruption: a verified cell fails on one bad
// final word, one bad gathered word or one line of the wrong length,
// whether it is its trace group's first cell, which runs the reference,
// or a later one, which checks against the image the first recorded.
// The error names the first mismatch in trace order. saxpy reads x[k]
// and y[k] and writes y[k], so the damaged y word is touched only by a
// vector the trace reads and then writes, and comes before the damaged
// x word in trace order though its address is higher.
func TestGroupVerifyCatchesCorruption(t *testing.T) {
	k, err := kernels.ByName("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	r := Runner{Elements: 64, Verify: true}
	j := job{kernel: k, stride: 1, alignment: 0, machine: r.machine(PVASDRAM)}
	tr := k.Build(r.Params(j.stride, j.alignment))
	// Commands 0–2 are x[0], y[0] and y[0]'s write; 3–5 the same for k=1.
	y0, x1 := tr.Cmds[1].Addr(7), tr.Cmds[3].Addr(0)
	if tr.Cmds[2].V != tr.Cmds[1].V || x1 >= y0 {
		t.Fatalf("setup: y[0] write %+v after read %+v, x[1] word %d, y[0] word %d", tr.Cmds[2].V, tr.Cmds[1].V, x1, y0)
	}
	for _, tc := range []struct {
		name string
		sys  corrupting
		want string
	}{
		{"final word", corrupting{peek: map[uint32]bool{x1: true, y0: true}}, fmt.Sprintf("final image at %d: got", y0)},
		{"gathered word", corrupting{gather: map[[2]int]bool{{4, 3}: true, {1, 9}: true}}, "cmd 1 word 9: got"},
		{"short line", corrupting{resize: map[int]int{3: 31}}, "cmd 3: got 31 words, want 32"},
		{"long line", corrupting{resize: map[int]int{1: 33, 3: 31}}, "cmd 1: got 33 words, want 32"},
	} {
		for _, later := range []bool{false, true} {
			c := &cellRunner{r: r}
			if later {
				if _, err := c.measure(newPVA(t), j); err != nil {
					t.Fatalf("%s: clean first cell: %v", tc.name, err)
				}
			}
			tc.sys.System = newPVA(t)
			_, err := c.measure(tc.sys, j)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s (later cell %v): error %v, want one containing %q", tc.name, later, err, tc.want)
			}
		}
	}
}

func newPVA(t *testing.T) memsys.System {
	t.Helper()
	sys, err := Runner{}.newSystem(PVASDRAM)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
