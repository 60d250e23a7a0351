// The sweep engine: a planned cell list sharded over a bounded worker
// pool. The unit a worker claims is a trace group — the run of adjacent
// cells that share kernel, stride and alignment, the systems and back
// ends of one grid point — so each trace is built, and with Verify
// reference-checked, once per group. Every worker owns a private
// cellRunner (warm-started systems are never shared between goroutines;
// clones and checkpoints may share immutable pages only), and results
// land at their planned index, making the output identical at every
// worker count regardless of scheduling.
//
// One engine, runJobs, serves every execution mode: the fail-fast sweep
// (first error aborts), the fault-isolated sweep (failing cells are
// quarantined, the rest of the grid completes), and the journaled
// resumable sweep (resume.go layers replay and durable record appends
// on top via runConfig).

package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pva/internal/memsys"
)

// cellRunner executes sweep cells with warm-started systems: the first
// cell of each machine constructs the system and captures its
// post-construction (cold-memory) checkpoint; every later cell rewinds
// the memory image to that checkpoint — an O(1) copy-on-write pointer
// swap — and reuses the cached session hardware instead of rebuilding
// it. Bit-identity with the cold path is pinned by the harness
// equivalence tests and the seed-cycle golden. It also holds the work
// its current trace group shares, so dropping the runner after a
// failure drops that too.
type cellRunner struct {
	r    Runner
	warm map[machine]warmSystem

	// The current trace group: its key and trace (once built), and —
	// once a cell has been verified — the reference run of the trace on
	// ref, which is reused from group to group: want, its gathered
	// lines, and image, its final word at every address the trace
	// touches (seen is recordImage's scratch).
	key     traceKey
	built   bool
	trace   memsys.Trace
	ref     *memsys.Reference
	want    memsys.Result
	image   []wordAt
	seen    map[vecKey]bool
	checked bool
}

// traceKey identifies the trace a cell runs.
type traceKey struct {
	kernel    string
	stride    uint32
	alignment int
}

func (j job) traceKey() traceKey { return traceKey{j.kernel.Name, j.stride, j.alignment} }

// traceOf returns cell j's trace, building it when j starts a new trace
// group. Systems only read the traces they run, so one trace serves the
// whole group.
func (c *cellRunner) traceOf(j job) memsys.Trace {
	if k := j.traceKey(); !c.built || k != c.key {
		trace := j.kernel.Build(c.r.Params(j.stride, j.alignment))
		c.key, c.trace, c.built, c.checked = k, trace, true, false
	}
	return c.trace
}

// warmSystem is a constructed system and its post-construction
// checkpoint.
type warmSystem struct {
	sys  memsys.Snapshotter
	base memsys.Checkpoint
}

// runPoint measures one cell, warm-starting when the system supports it
// and falling back to fresh construction when it does not.
func (c *cellRunner) runPoint(j job) (Point, error) {
	r := c.r.on(j.machine)
	if w, ok := c.warm[j.machine]; ok {
		if err := w.sys.Restore(w.base); err != nil {
			return Point{}, err
		}
		return c.measure(w.sys, j)
	}
	sys, err := r.newSystem(j.system)
	if err != nil {
		return Point{}, err
	}
	if sn, ok := sys.(memsys.Snapshotter); ok {
		if c.warm == nil {
			c.warm = make(map[machine]warmSystem)
		}
		c.warm[j.machine] = warmSystem{sn, sn.Snapshot()}
	}
	return c.measure(sys, j)
}

// runPointSafe measures one cell, converting any panic escaping the
// point (a kernel builder bug, a simulator invariant that slipped past
// the Run-boundary recovery) into an error that names the failing cell.
// Without this a panicking pool worker would kill the whole process
// with a goroutine stack instead of failing the sweep.
func (c *cellRunner) runPointSafe(j job) (p Point, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("harness: panic in %v: %v", j, rec)
		}
	}()
	return c.runPoint(j)
}

// runConfig selects a runJobs execution mode. The zero value is the
// fail-fast sweep.
type runConfig struct {
	// isolate quarantines failing cells into Outcome.Failures and keeps
	// going, instead of aborting the sweep on the first error.
	isolate bool
	// replayed maps plan indices to journal-replayed Points; those cells
	// are not re-run.
	replayed map[int]Point
	// sink, when non-nil, durably records each cell outcome as it lands.
	sink *journalSink
}

// traceGroups splits the plan indices to run into trace groups: runs of
// adjacent indices whose cells share a trace. Plan order keeps each grid
// point's systems and back ends together, so a group is one grid point
// less its journal-replayed cells.
func traceGroups(jobs []job, todo []int) [][]int {
	var groups [][]int
	for lo := 0; lo < len(todo); {
		hi := lo + 1
		for hi < len(todo) && jobs[todo[hi]].traceKey() == jobs[todo[lo]].traceKey() {
			hi++
		}
		groups = append(groups, todo[lo:hi])
		lo = hi
	}
	return groups
}

// runJobs is the one sweep engine: it executes the planned job list on
// up to workers goroutines (workers <= 0: one per CPU; the single-worker
// case runs inline with no pool machinery), each worker claiming whole
// trace groups and guarding each cell with the runner's failure policy
// (per-cell deadline, bounded retry). Results land at their planned
// index; replayed cells are filled in without running and left out of
// their groups.
func (r Runner) runJobs(jobs []job, workers int, rc runConfig) (*Outcome, error) {
	out := &Outcome{
		Points: make([]Point, len(jobs)),
		Done:   make([]bool, len(jobs)),
	}
	todo := make([]int, 0, len(jobs))
	for i := range jobs {
		if p, ok := rc.replayed[i]; ok {
			out.Points[i] = p
			out.Done[i] = true
			out.Resumed++
			continue
		}
		todo = append(todo, i)
	}

	groups := traceGroups(jobs, todo)
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(groups) {
		workers = len(groups)
	}

	var (
		mu      sync.Mutex // guards out.Failures
		next    atomic.Int64
		failed  atomic.Bool // set once the sweep must stop running cells
		errOnce sync.Once
		firstEr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstEr = err })
		failed.Store(true)
	}
	work := func(g *guardedRunner) {
		for {
			n := int(next.Add(1)) - 1
			if n >= len(groups) {
				return
			}
			for _, i := range groups[n] {
				if failed.Load() {
					return
				}
				p, attempts, err := g.run(jobs[i])
				if err == nil {
					if jerr := rc.sink.append(recCellDone, cellDoneRec{Index: i, Point: p}); jerr != nil {
						fail(jerr)
						return
					}
					out.Points[i] = p
					out.Done[i] = true
					continue
				}
				if !rc.isolate {
					fail(err)
					return
				}
				f := CellFailure{
					Index:     i,
					Kernel:    jobs[i].kernel.Name,
					Stride:    jobs[i].stride,
					Alignment: jobs[i].alignment,
					System:    jobs[i].system,
					Channels:  jobs[i].channels,
					Tech:      jobs[i].tech.label(),
					Attempts:  attempts,
					Err:       err.Error(),
				}
				if jerr := rc.sink.append(recCellFailure, f); jerr != nil {
					fail(jerr)
					return
				}
				mu.Lock()
				out.Failures = append(out.Failures, f)
				mu.Unlock()
			}
		}
	}

	if workers <= 1 {
		work(newGuardedRunner(r))
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Warm systems are per-worker, never shared.
				work(newGuardedRunner(r))
			}()
		}
		wg.Wait()
	}
	if failed.Load() {
		return nil, firstEr
	}
	sortFailures(out.Failures)
	return out, nil
}
