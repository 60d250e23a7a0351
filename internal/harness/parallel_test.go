package harness

import (
	"reflect"
	"strings"
	"testing"

	"pva/internal/kernels"
	"pva/internal/memsys"
)

// TestParallelSweepMatchesSerial requires the parallel engine to produce
// the serial sweep's point slice exactly — same order, same cycles, same
// stats — at several pool widths, including more workers than cells, on
// a one-machine grid and on one over channel counts and back ends.
func TestParallelSweepMatchesSerial(t *testing.T) {
	r := Runner{Elements: 128}
	for _, g := range []Grid{
		{Kernels: []string{"copy", "saxpy"}, Strides: []uint32{1, 16, 19}},
		{Kernels: []string{"saxpy"}, Strides: []uint32{16, 19}, Channels: []uint32{1, 2}, Techs: []string{"sdram", "salp-4", "pcm-4p"}},
	} {
		serial, err := r.Sweep(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 3, 1000} {
			par, err := r.Sweep(g, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("%+v workers=%d: parallel sweep diverged from serial", g, workers)
			}
			if !reflect.DeepEqual(Collate(serial), Collate(par)) {
				t.Fatalf("%+v workers=%d: collated ranges diverged", g, workers)
			}
		}
	}
}

// TestParallelSweepError requires a bad grid to surface its error
// rather than a partial point slice.
func TestParallelSweepError(t *testing.T) {
	r := Runner{Elements: 128}
	if _, err := r.Sweep(Grid{Kernels: []string{"no-such-kernel"}}, 4); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// TestParallelSweepPanicPropagates drives a kernel whose builder panics
// through the production worker pool and the serial fast path: the
// sweep must fail with an error naming the failing cell, not kill the
// process with a goroutine stack.
func TestParallelSweepPanicPropagates(t *testing.T) {
	bomb := kernels.Kernel{
		Name:    "bomb",
		Vectors: 1,
		Build: func(p kernels.Params) memsys.Trace {
			panic("builder exploded")
		},
	}
	good, err := kernels.ByName("copy")
	if err != nil {
		t.Fatal(err)
	}
	pva := machine{system: PVASDRAM, channels: 1}
	var jobs []job
	for s := uint32(1); s <= 8; s++ {
		jobs = append(jobs, job{kernel: good, stride: s, machine: pva})
	}
	jobs = append(jobs, job{kernel: bomb, stride: 19, alignment: 2, machine: pva})

	r := Runner{Elements: 128}
	for _, workers := range []int{1, 4} {
		out, err := r.runJobs(jobs, workers, runConfig{})
		if err == nil {
			t.Fatalf("workers=%d: panicking kernel produced %d points and no error", workers, len(out.Points))
		}
		for _, want := range []string{"panic", "bomb", "stride 19", "align 2", "builder exploded"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("workers=%d: error %q does not identify the cell (%q missing)", workers, err, want)
			}
		}
	}
}

// TestWarmStartMatchesCold pins the warm-start sweep path: every cell
// measured on a Restore()d reused system must equal the same cell
// measured on a freshly constructed one, across all system kinds and
// several back ends, with Verify on so the functional reference also
// checks the restored memory image. It also requires later warm runs
// not to corrupt earlier Points (the per-channel stats buffer must be
// copied out).
func TestWarmStartMatchesCold(t *testing.T) {
	r := Runner{Elements: 128, Verify: true, Channels: 2}
	jobs, err := r.plan(Grid{Kernels: []string{"copy", "saxpy"}, Strides: []uint32{1, 4, 19}, Techs: []string{"sdram", "pcm-4p"}})
	if err != nil {
		t.Fatal(err)
	}
	cold := make([]Point, len(jobs))
	for i, j := range jobs {
		p, err := r.on(j.machine).RunPoint(j.kernel, j.stride, j.alignment, j.system)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = p
	}
	cells := cellRunner{r: r}
	warm := make([]Point, len(jobs))
	for i, j := range jobs {
		p, err := cells.runPoint(j)
		if err != nil {
			t.Fatalf("warm cell %d: %v", i, err)
		}
		warm[i] = p
	}
	// Compare only after the whole warm sweep so aliased buffers in an
	// early Point would have been clobbered by later runs.
	for i := range jobs {
		if !reflect.DeepEqual(cold[i], warm[i]) {
			t.Errorf("cell %d (%v) diverged:\ncold %+v\nwarm %+v", i, jobs[i], cold[i], warm[i])
		}
	}
}
