package pvaunit

import (
	"testing"

	"pva/internal/kernels"
	"pva/internal/memsys"
)

// dispatchTrace is the gather kernel followed by the scatter kernel at
// stride 19, alignment 1, with every computed write turned into a
// preset-data write of the same shape and dependences (a Compute
// closure allocates its argument list by design).
func dispatchTrace(tb testing.TB) memsys.Trace {
	var cmds []memsys.VectorCmd
	for _, name := range []string{"gather", "scatter"} {
		k, err := kernels.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		base := len(cmds)
		for _, c := range k.Build(kernels.PaperParams(19, 1)).Cmds {
			deps := make([]int, len(c.DependsOn))
			for j, d := range c.DependsOn {
				deps[j] = base + d
			}
			c.DependsOn = deps
			if c.Compute != nil {
				c.Compute = nil
				c.Data = make([]uint32, c.V.Length)
				for j := range c.Data {
					c.Data[j] = uint32(len(cmds)<<8 | j)
				}
			}
			cmds = append(cmds, c)
		}
	}
	return memsys.Trace{Cmds: cmds}
}

// BenchmarkDispatch is the channel dispatcher's layer benchmark: one
// reused four-channel, xor-decoded, 4-partition PCM system runs a fixed
// gather+scatter trace, every command pre-claimed, index lists on the
// bus and shares on all four channels. It reports host nanoseconds and
// front-end steps per command; the warm system allocates nothing.
func BenchmarkDispatch(b *testing.B) {
	sys := MustNew(machineConfig(b, 4, "xor", "pcm", 4))
	tr := dispatchTrace(b)
	for range 3 { // warm the pools and slice capacities
		if _, err := sys.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var steps uint64
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(tr); err != nil {
			b.Fatal(err)
		}
		steps += sys.ses.fe.steps
	}
	cmds := float64(b.N) * float64(len(tr.Cmds))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cmds, "ns/command")
	b.ReportMetric(float64(steps)/cmds, "steps/command")
}
