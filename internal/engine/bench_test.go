package engine

import "testing"

// busyGroup is a group whose members all have work on every cycle.
type busyGroup struct{ work []uint64 }

func (g *busyGroup) Step(cycle uint64, strict bool) (uint64, error) {
	for i := range g.work {
		g.work[i] += cycle
	}
	return cycle + 1, nil
}

// sparseDriver's own timers fire every period cycles until end.
type sparseDriver struct {
	period, end uint64
	done        bool
}

func (d *sparseDriver) Step(now uint64) error { d.done = now >= d.end; return nil }

func (d *sparseDriver) NextWake(now uint64) uint64 {
	return min((now+d.period-1)/d.period*d.period, d.end)
}

func (d *sparseDriver) Poked() bool       { return false }
func (d *sparseDriver) Done() bool        { return d.done }
func (d *sparseDriver) Progress() uint64  { return 0 }
func (d *sparseDriver) DebugDump() string { return "sparseDriver" }

// BenchmarkEngineStep measures the engine's per-cycle dispatch: a
// group busy on every cycle, so no cycle is skipped, beside a driver
// whose timers fire every 16th cycle. It reports host time per stepped
// cycle.
func BenchmarkEngineStep(b *testing.B) {
	const cycles = 4096
	d := &sparseDriver{period: 16, end: cycles - 1}
	e := New(Config{}, d)
	e.RegisterGroup(&busyGroup{work: make([]uint64, 16)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		d.done = false
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cycles), "ns/cycle")
}
