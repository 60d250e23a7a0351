// The shared worker pool: the engine's fan-out primitive for callers
// that run independent simulations side by side (the autotuner's greedy
// climbs and full-simulation evaluations). The clocked loop itself is
// serial; nothing inside a simulated cycle runs on the pool.
//
// Workers are process-global, spawned once on first use and shared by
// every caller in the process, which bounds total concurrency at
// GOMAXPROCS (at most 16) regardless of how many callers submit work.
// Workers never block on anything but the task channel, so queued tasks
// always drain as long as a task does not itself submit pool work and
// wait for it.

package engine

import (
	"runtime"
	"sync"
)

// poolTask is one unit of pool work: a function call and the wait group
// to release when it returns.
type poolTask struct {
	fn func()
	wg *sync.WaitGroup
}

var pool struct {
	once sync.Once
	ch   chan poolTask
}

// poolTasks returns the shared task channel, spawning the workers on
// first use.
func poolTasks() chan poolTask {
	pool.once.Do(func() {
		// The buffer lets a caller queue a whole fan-out (one task per
		// survivor evaluation) before it waits, instead of handing the
		// tasks over one worker at a time.
		pool.ch = make(chan poolTask, 64)
		n := min(runtime.GOMAXPROCS(0), 16)
		for i := 0; i < n; i++ {
			go poolWorker(pool.ch)
		}
	})
	return pool.ch
}

func poolWorker(ch chan poolTask) {
	for t := range ch {
		t.fn()
		t.wg.Done()
	}
}

// Go runs fn on the shared pool and calls wg.Done when it returns. fn
// must not submit pool work of its own and wait for it (a simulation
// inside fn is fine: it runs on the serial engine), and it is
// responsible for capturing its own results and errors.
func Go(fn func(), wg *sync.WaitGroup) {
	poolTasks() <- poolTask{fn: fn, wg: wg}
}
