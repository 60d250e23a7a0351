package harness

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pva/internal/kernels"
	"pva/internal/memsys"
)

// resumeGrid is the small sweep the kill-and-resume tests run: 20 cells,
// enough for interesting cut points, small enough to re-run many times.
func resumeGrid() ([]string, []uint32, []SystemKind) {
	return []string{"copy"}, []uint32{1, 19}, []SystemKind{PVASDRAM, CacheLineSerial}
}

// machinesGrid is resumeGrid over 2 channel counts and 2 back ends: 60
// cells on six machines.
func machinesGrid() Grid {
	ks, strides, systems := resumeGrid()
	return Grid{Kernels: ks, Strides: strides, Systems: systems,
		Channels: []uint32{1, 2}, Techs: []string{"sdram", "pcm-4p"}}
}

// TestResumeKillAtRandomBoundaries is the crash-safety pin: a journaled
// sweep aborted at randomized cell boundaries (and once with a torn
// trailing record) must, when resumed with the same flags, produce an
// outcome bit-identical to the uninterrupted run, on one machine and on
// a grid over channel counts and back ends.
func TestResumeKillAtRandomBoundaries(t *testing.T) {
	ks, strides, systems := resumeGrid()
	for _, g := range []Grid{{Kernels: ks, Strides: strides, Systems: systems}, machinesGrid()} {
		resumeAtRandomBoundaries(t, g)
	}
}

func resumeAtRandomBoundaries(t *testing.T, g Grid) {
	r := Runner{Elements: 128}
	want, err := r.ResumableGrid(g, 2, JournalConfig{
		Dir: filepath.Join(t.TempDir(), "uninterrupted"), NoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want.Err() != nil || want.Resumed != 0 {
		t.Fatalf("uninterrupted run not clean: %+v", want)
	}
	cells := len(want.Points)

	rng := rand.New(rand.NewSource(1))
	cuts := []int{1, cells - 1}
	for i := 0; i < 4; i++ {
		cuts = append(cuts, 1+rng.Intn(cells-1))
	}
	for _, cut := range cuts {
		for _, tear := range []bool{false, true} {
			dir := t.TempDir()
			_, err := r.ResumableGrid(g, 2, JournalConfig{
				Dir: dir, NoSync: true, abortAfter: cut,
			})
			if !errors.Is(err, errAborted) {
				t.Fatalf("cut %d: abort hook returned %v", cut, err)
			}
			if tear {
				// A crash mid-append: chop bytes off the last record. The
				// resume must drop exactly that record and re-run its cell.
				jPath := filepath.Join(dir, "sweep.journal")
				data, err := os.ReadFile(jPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(jPath, data[:len(data)-3], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, err := r.ResumableGrid(g, 2, JournalConfig{Dir: dir, NoSync: true})
			if err != nil {
				t.Fatalf("cut %d tear %v: resume failed: %v", cut, tear, err)
			}
			wantResumed := cut
			if tear {
				wantResumed--
			}
			if got.Resumed != wantResumed {
				t.Errorf("cut %d tear %v: replayed %d cells, want %d", cut, tear, got.Resumed, wantResumed)
			}
			if len(got.Failures) != 0 {
				t.Errorf("cut %d tear %v: unexpected quarantine: %v", cut, tear, got.Failures)
			}
			if !reflect.DeepEqual(got.Points, want.Points) {
				t.Errorf("cut %d tear %v: resumed grid diverged from uninterrupted run", cut, tear)
			}
			// A second resume replays everything and runs nothing.
			again, err := r.ResumableGrid(g, 2, JournalConfig{Dir: dir, NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if again.Resumed != cells || !reflect.DeepEqual(again.Points, want.Points) {
				t.Errorf("cut %d tear %v: full replay resumed %d/%d cells or diverged", cut, tear, again.Resumed, cells)
			}
		}
	}
}

// TestResumeRejectsChangedFlags: a journal written under one
// configuration must refuse to resume under another — merging results
// measured with different flags would corrupt the grid silently.
func TestResumeRejectsChangedFlags(t *testing.T) {
	g := machinesGrid()
	dir := t.TempDir()
	jc := JournalConfig{Dir: dir, NoSync: true}
	r := Runner{Elements: 128}
	if _, err := r.ResumableGrid(g, 1, jc); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		r      Runner
		change func(*Grid)
	}{
		{"elements", Runner{Elements: 256}, func(*Grid) {}},
		{"strides", r, func(g *Grid) { g.Strides = []uint32{1, 2} }},
		{"systems", r, func(g *Grid) { g.Systems = []SystemKind{PVASDRAM, GatheringSerial} }},
		{"channels", r, func(g *Grid) { g.Channels = []uint32{1, 4} }},
		{"back ends", r, func(g *Grid) { g.Techs = []string{"sdram", "salp-4"} }},
		{"one machine", r, func(g *Grid) { g.Channels, g.Techs = nil, nil }},
	}
	for _, c := range cases {
		changed := machinesGrid()
		c.change(&changed)
		if _, err := c.r.ResumableGrid(changed, 1, jc); !errors.Is(err, ErrJournalMismatch) {
			t.Errorf("%s: got %v, want ErrJournalMismatch", c.name, err)
		}
	}
	// The original flags still resume fine after all those refusals.
	out, err := r.ResumableGrid(g, 1, jc)
	if err != nil || out.Resumed != len(out.Points) {
		t.Fatalf("original flags no longer resume: %v (%d replayed)", err, out.Resumed)
	}
}

// bombKernel builds a kernel whose builder panics until it has been
// called fuse times (fuse 0: always panics).
func bombKernel(name string, fuse int64) (kernels.Kernel, *atomic.Int64) {
	good, err := kernels.ByName("copy")
	if err != nil {
		panic(err)
	}
	var calls atomic.Int64
	return kernels.Kernel{
		Name:    name,
		Vectors: good.Vectors,
		Build: func(p kernels.Params) memsys.Trace {
			if n := calls.Add(1); fuse == 0 || n < fuse {
				panic("builder exploded")
			}
			return good.Build(p)
		},
	}, &calls
}

// TestQuarantinePartialGrid: with isolation on, persistently failing
// cells land in the manifest with their coordinates while every healthy
// cell still completes and verifies — including the siblings of a cell
// that fails in the middle of its trace group.
func TestQuarantinePartialGrid(t *testing.T) {
	good, err := kernels.ByName("copy")
	if err != nil {
		t.Fatal(err)
	}
	bomb, _ := bombKernel("bomb", 0)
	pva := machine{system: PVASDRAM, channels: 1}
	var jobs []job
	for s := uint32(1); s <= 6; s++ {
		jobs = append(jobs, job{kernel: good, stride: s, machine: pva})
	}
	jobs = append(jobs, job{kernel: bomb, stride: 19, alignment: 2, machine: pva})
	// One trace group whose middle cell fails: no decoder splits three
	// channels.
	siblings := []int{len(jobs), len(jobs) + 2}
	jobs = append(jobs,
		job{kernel: good, stride: 8, alignment: 1, machine: machine{system: CacheLineSerial, channels: 1}},
		job{kernel: good, stride: 8, alignment: 1, machine: machine{system: PVASDRAM, channels: 3}},
		job{kernel: good, stride: 8, alignment: 1, machine: machine{system: GatheringSerial, channels: 1}})
	jobs = append(jobs, job{kernel: bomb, stride: 4, machine: machine{system: GatheringSerial, channels: 1}})
	jobs = append(jobs, job{kernel: bomb, stride: 2, alignment: 3,
		machine: machine{system: PVASDRAM, channels: 2, tech: backEnd{tech: "pcm", partitions: 4}}})

	r := Runner{Elements: 128, Retries: 1, Verify: true}
	for _, workers := range []int{1, 3} {
		out, err := r.runJobs(jobs, workers, runConfig{isolate: true})
		if err != nil {
			t.Fatalf("workers=%d: isolation aborted the sweep: %v", workers, err)
		}
		if len(out.Failures) != 4 {
			t.Fatalf("workers=%d: %d failures, want 4: %v", workers, len(out.Failures), out.Failures)
		}
		f := out.Failures[0]
		if f.Kernel != "bomb" || f.Stride != 19 || f.Alignment != 2 || f.System != PVASDRAM || f.Channels != 1 || f.Tech != "" || f.Attempts != 2 {
			t.Errorf("workers=%d: first failure misdescribed: %+v", workers, f)
		}
		if f := out.Failures[1]; f.Index != siblings[0]+1 || f.Channels != 3 || f.Attempts != 2 {
			t.Errorf("workers=%d: mid-group failure misdescribed: %+v", workers, f)
		}
		if f := out.Failures[3]; f.Channels != 2 || f.Tech != "pcm-4p" {
			t.Errorf("workers=%d: failure lost its machine: %+v", workers, f)
		}
		if got := len(out.Completed()); got != len(jobs)-4 {
			t.Errorf("workers=%d: %d completed cells, want %d", workers, got, len(jobs)-4)
		}
		for _, i := range siblings {
			j := jobs[i]
			want, err := r.on(j.machine).RunPoint(j.kernel, j.stride, j.alignment, j.system)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Done[i] || !reflect.DeepEqual(out.Points[i], want) {
				t.Errorf("workers=%d: sibling %v of the failed cell did not complete as a lone verified run does", workers, j)
			}
		}
		merr := out.Err()
		if merr == nil {
			t.Fatalf("workers=%d: manifest error is nil", workers)
		}
		for _, want := range []string{"4 of 12", "bomb stride 19 align 2 on pva-sdram at 1 ch",
			"copy stride 8 align 1 on pva-sdram at 3 ch", "bomb stride 4 align 0 on gathering-serial at 1 ch",
			"bomb stride 2 align 3 on pva-sdram/pcm-4p at 2 ch"} {
			if !strings.Contains(merr.Error(), want) {
				t.Errorf("workers=%d: manifest %q missing %q", workers, merr, want)
			}
		}
	}
}

// TestCellTimeout: a cell that wedges in wall-clock time (here: a
// builder that sleeps) must be cut off at the runner's deadline with a
// typed error naming the cell.
func TestCellTimeout(t *testing.T) {
	good, err := kernels.ByName("copy")
	if err != nil {
		t.Fatal(err)
	}
	slow := kernels.Kernel{
		Name:    "tarpit",
		Vectors: good.Vectors,
		Build: func(p kernels.Params) memsys.Trace {
			time.Sleep(10 * time.Second)
			return good.Build(p)
		},
	}
	pva := machine{system: PVASDRAM, channels: 1}
	jobs := []job{
		{kernel: good, stride: 1, machine: pva},
		{kernel: slow, stride: 2, alignment: 3, machine: pva},
	}
	r := Runner{Elements: 128, CellTimeout: 50 * time.Millisecond}
	_, err = r.runJobs(jobs, 1, runConfig{})
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("got %v, want ErrCellTimeout", err)
	}
	for _, want := range []string{"tarpit", "stride 2", "align 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("timeout error %q does not name the cell (%q missing)", err, want)
		}
	}
}

// TestRetrySucceedsAfterTransient: a cell that fails once and then
// recovers must succeed within the retry budget, on a fresh system, and
// leave no quarantine entry.
func TestRetrySucceedsAfterTransient(t *testing.T) {
	flaky, calls := bombKernel("flaky", 2)
	jobs := []job{{kernel: flaky, stride: 1, machine: machine{system: PVASDRAM, channels: 1}}}
	r := Runner{Elements: 128, Retries: 2, RetryBackoff: time.Millisecond}
	out, err := r.runJobs(jobs, 1, runConfig{isolate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failures) != 0 {
		t.Fatalf("transient failure was quarantined: %v", out.Failures)
	}
	if !out.Done[0] || out.Points[0].Cycles == 0 {
		t.Fatalf("cell did not complete: %+v", out.Points[0])
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("builder called %d times, want 2 (fail, then succeed)", got)
	}
}

// TestResumedWarmStartMatchesDirect pins the resume chain: a sweep whose
// cells all re-run after a crash must be bit-identical to the plain
// in-memory sweep.
func TestResumedWarmStartMatchesDirect(t *testing.T) {
	r := Runner{Elements: 128, Channels: 2}
	ks, strides, systems := resumeGrid()
	direct, err := r.Sweep(Grid{Kernels: ks, Strides: strides, Systems: systems}, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Abort immediately so every cell but the first re-runs on resume
	// rather than replaying a journal record.
	if _, err := r.ResumableSweep(ks, strides, systems, 2, JournalConfig{Dir: dir, NoSync: true, abortAfter: 1}); !errors.Is(err, errAborted) {
		t.Fatal(err)
	}
	out, err := r.ResumableSweep(ks, strides, systems, 2, JournalConfig{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Resumed != 1 {
		t.Fatalf("resumed %d cells, want 1", out.Resumed)
	}
	if !reflect.DeepEqual(out.Points, direct) {
		t.Fatal("resumed sweep diverged from the in-memory sweep")
	}
}
