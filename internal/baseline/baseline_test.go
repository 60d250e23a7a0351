package baseline

import (
	"strings"
	"testing"

	"pva/internal/core"
	"pva/internal/memsys"
)

func read(base, stride, length uint32) memsys.VectorCmd {
	return memsys.VectorCmd{Op: memsys.Read, V: core.Vector{Base: base, Stride: stride, Length: length}}
}

func write(base, stride, length uint32, data []uint32) memsys.VectorCmd {
	return memsys.VectorCmd{Op: memsys.Write, V: core.Vector{Base: base, Stride: stride, Length: length}, Data: data}
}

func TestCacheLineSerialLineCounts(t *testing.T) {
	cases := []struct {
		stride uint32
		lines  uint64
	}{
		{1, 1},   // 32 words = exactly one line
		{2, 2},   // 64 words = two lines
		{4, 4},   // 128 words
		{8, 8},   // 256 words
		{16, 16}, // two elements per line
		{19, 19}, // 32 elements spanning 590 words
		{32, 32}, // one element per line
	}
	for _, c := range cases {
		got := linesTouched(read(0, c.stride, 32))
		if got != c.lines {
			t.Errorf("stride %d: linesTouched = %d, want %d", c.stride, got, c.lines)
		}
	}
}

func TestCacheLineSerialCycles(t *testing.T) {
	s := NewCacheLineSerialChannels(1)
	res, err := s.Run(memsys.Trace{Cmds: []memsys.VectorCmd{
		read(0, 1, 32),  // 1 line
		read(0, 16, 32), // 16 lines
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != (1+16)*20 {
		t.Errorf("cycles = %d, want %d", res.Cycles, 17*20)
	}
	if res.Stats.LineFills != 17 {
		t.Errorf("line fills = %d", res.Stats.LineFills)
	}
}

func TestCacheLineSerialUnalignedBase(t *testing.T) {
	// Base offset 31, stride 1, 32 elements straddles two lines.
	if got := linesTouched(read(31, 1, 32)); got != 2 {
		t.Errorf("straddling vector touches %d lines, want 2", got)
	}
}

func TestGatheringSerialCycles(t *testing.T) {
	s := NewGatheringSerialChannels(nil)
	res, err := s.Run(memsys.Trace{Cmds: []memsys.VectorCmd{
		read(0, 19, 32),
		read(4096, 1, 32),
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(2 * (2 + 2 + 2 + 32)) // startup + one element/cycle, per command
	if res.Cycles != want {
		t.Errorf("cycles = %d, want %d", res.Cycles, want)
	}
}

func TestGatheringSerialStrideInvariant(t *testing.T) {
	// The gathering system's time is independent of stride (it touches
	// only requested elements and never crosses pages by assumption).
	var prev uint64
	for i, stride := range []uint32{1, 4, 16, 19} {
		s := NewGatheringSerialChannels(nil)
		res, err := s.Run(memsys.Trace{Cmds: []memsys.VectorCmd{read(0, stride, 32)}})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Cycles != prev {
			t.Errorf("stride %d: %d cycles, previous stride gave %d", stride, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// TestBaselinesMoveData runs a read/write/read sequence on both systems
// and checks against the functional reference.
func TestBaselinesMoveData(t *testing.T) {
	data := make([]uint32, 32)
	for i := range data {
		data[i] = 0x1000 + uint32(i)
	}
	trace := memsys.Trace{Cmds: []memsys.VectorCmd{
		read(0, 7, 32),
		write(0, 7, 32, data),
		read(0, 7, 32),
	}}
	for _, sys := range []memsys.System{NewCacheLineSerialChannels(1), NewGatheringSerialChannels(nil)} {
		got, err := sys.Run(trace)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		want, err := memsys.NewReference().Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		for i := range trace.Cmds {
			if trace.Cmds[i].Op != memsys.Read {
				continue
			}
			for j := range want.ReadData[i] {
				if got.ReadData[i][j] != want.ReadData[i][j] {
					t.Fatalf("%s cmd %d word %d: %#x != %#x", sys.Name(), i, j,
						got.ReadData[i][j], want.ReadData[i][j])
				}
			}
		}
		if got.ReadData[2][5] != 0x1005 {
			t.Fatalf("%s: second read did not observe the write", sys.Name())
		}
	}
}

func TestBaselineComputeChain(t *testing.T) {
	trace := memsys.Trace{Cmds: []memsys.VectorCmd{
		read(64, 2, 32),
		{
			Op:        memsys.Write,
			V:         core.Vector{Base: 1 << 16, Stride: 2, Length: 32},
			DependsOn: []int{0},
			Compute: func(deps [][]uint32) []uint32 {
				out := make([]uint32, 32)
				for i, v := range deps[0] {
					out[i] = v * 3
				}
				return out
			},
		},
	}}
	s := NewCacheLineSerialChannels(1)
	if _, err := s.Run(trace); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Peek(1<<16), memsys.Fill(64)*3; got != want {
		t.Errorf("computed write: got %#x, want %#x", got, want)
	}
}

// TestBaselineValidation: both baselines refuse an invalid trace, and a
// write whose Compute returns a short line fails naming its command.
func TestBaselineValidation(t *testing.T) {
	short := write(64, 1, 32, nil)
	short.DependsOn = []int{0}
	short.Compute = func([][]uint32) []uint32 { return []uint32{0} }
	for _, c := range []struct {
		name string
		tr   memsys.Trace
		want []string // substrings the error must hold
	}{
		{"invalid trace", memsys.Trace{Cmds: []memsys.VectorCmd{read(0, 1, 0)}}, nil},
		{"short Compute", memsys.Trace{Cmds: []memsys.VectorCmd{read(0, 1, 32), short}},
			[]string{"cmd 1", "Compute returned 1 words"}},
	} {
		for _, sys := range []*Serial{NewCacheLineSerialChannels(1), NewGatheringSerialChannels(nil)} {
			_, err := sys.Run(c.tr)
			if err == nil {
				t.Errorf("%s: %s accepted it", sys.Name(), c.name)
				continue
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s: %s: error %q does not name %q", sys.Name(), c.name, err, w)
				}
			}
		}
	}
}

// TestLinesTouchedClosedForm checks the arithmetic line count against
// exhaustive enumeration, including stride-zero, sub-line, line-multiple
// and wrapping vectors.
func TestLinesTouchedClosedForm(t *testing.T) {
	enumerate := func(v core.Vector) uint64 {
		seen := make(map[uint32]struct{})
		for i := uint32(0); i < v.Length; i++ {
			seen[v.Addr(i)/lineWords] = struct{}{}
		}
		return uint64(len(seen))
	}
	bases := []uint32{0, 1, 17, 31, 32, 1 << 20, 0xFFFFFF00, 0xFFFFFFFF}
	strides := []uint32{0, 1, 2, 3, 8, 19, 31, 32, 33, 64, 513, 1 << 16, 1 << 30}
	lengths := []uint32{1, 2, 3, 31, 32, 33, 100}
	for _, b := range bases {
		for _, st := range strides {
			for _, n := range lengths {
				v := core.Vector{Base: b, Stride: st, Length: n}
				got := linesTouched(memsys.VectorCmd{Op: memsys.Read, V: v})
				want := enumerate(v)
				if got != want {
					t.Fatalf("linesTouched(%+v) = %d, enumeration says %d", v, got, want)
				}
			}
		}
	}
}
