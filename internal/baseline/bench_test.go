package baseline

import (
	"testing"

	"pva/internal/kernels"
	"pva/internal/memsys"
)

// BenchmarkSerialRun measures the baseline layer alone: both serial
// systems over one pass of the paper grid's traces (8 kernels × 6
// strides × 5 alignments at 1024 elements), each run on memory rewound
// to cold as a sweep's warm-started cells are. It reports host time per
// element moved.
func BenchmarkSerialRun(b *testing.B) {
	var traces []memsys.Trace
	elements := 0
	for _, k := range kernels.All() {
		for _, stride := range []uint32{1, 2, 4, 8, 16, 19} {
			for align := 0; align < kernels.Alignments; align++ {
				tr := k.Build(kernels.PaperParams(stride, align))
				for _, c := range tr.Cmds {
					elements += int(c.V.Length)
				}
				traces = append(traces, tr)
			}
		}
	}
	systems := []memsys.Snapshotter{NewCacheLineSerialChannels(1), NewGatheringSerialChannels(nil)}
	cold := make([]memsys.Checkpoint, len(systems))
	for i, s := range systems {
		cold[i] = s.Snapshot()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, s := range systems {
			for _, tr := range traces {
				if err := s.Restore(cold[i]); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Run(tr); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(systems)*elements), "ns/element")
}
