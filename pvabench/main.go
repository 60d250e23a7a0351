// Command pvabench is the repository's benchmark. It runs one workload
// for a fixed host time and prints, as the last line of its output, one
// JSON object with the run's correctness, the cells or searches it
// attempted and failed, and its metrics: the end-to-end metrics with
// -trace 0, the per-layer rows of a traced replay with -trace 1. See
// README.md for the workloads and the metric map; run.sh builds and
// runs it from a checkout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// mainEnv marks a fresh process the benchmark starts, and so makes a
// test binary that re-executes itself run the benchmark instead of its
// tests. The process sets the workload up and prints readyLine; then,
// when the variable is "pass", it runs one pass and prints its exact
// key, and when it is "setup", it exits.
const mainEnv = "PVABENCH_MAIN"

// readyLine is what a fresh process prints when its set-up is done and
// its first pass would begin; the parent times set-up up to it.
const readyLine = "# set up"

// A run starts setupProcesses fresh processes that only set up, then
// passProcesses that also run a pass. Set-up takes milliseconds, most of
// it process start, and single samples spread widely, so setup_s is the
// median over all of them; max_rss_mb is the median peak of those that
// run a pass.
const (
	setupProcesses = 15
	passProcesses  = 3
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	elements uint
	golden   string
	spans    string
}

func run(args []string, stdout io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("pvabench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed (the autotune-swap search seed)")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "host seconds to measure")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	fs.UintVar(&cfg.elements, "elements", 1024, "elements per vector (below 1024 only for smoke runs)")
	fs.StringVar(&cfg.golden, "golden", "testdata/seed_cycles.json", "the repository's seed golden")
	fs.StringVar(&cfg.spans, "spans", "", "traced run: span file (default .bench_build/spans/<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.trace != 0 && cfg.trace != 1 || cfg.seconds <= 0 || cfg.elements == 0 {
		fmt.Fprintln(os.Stderr, "pvabench: need -trace 0|1, -seconds > 0, -elements > 0")
		return 2
	}
	runtime.GOMAXPROCS(workers)
	w, err := newWorkload(cfg.workload, cfg.seed, uint32(cfg.elements), cfg.golden)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pvabench:", err)
		return 2
	}
	var res result
	switch mode := os.Getenv(mainEnv); {
	case mode != "":
		fmt.Fprintln(stdout, readyLine)
		if mode != "pass" {
			return 0
		}
		v, err := w.pass(0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pvabench:", err)
			return 1
		}
		fmt.Fprintln(stdout, w.check(0, v).key)
		return 0
	case cfg.trace == 0:
		res, err = endToEnd(cfg, w, stdout)
	default:
		res, err = traced(cfg, w, stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pvabench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pvabench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally folds pass outcomes into a result's counts and correctness, and
// holds results on equal inputs to equal exact keys.
type tally struct {
	attempted, failed, drifted int
	wrong                      []string
	keys                       map[string]string
}

// add folds in the outcome of a pass on input.
func (t *tally) add(input int, o outcome) {
	t.attempted += o.attempted
	t.failed += len(o.failed)
	t.drifted += o.drifted
	t.wrong = append(t.wrong, o.wrong...)
	t.same(passOn(input), o.key)
}

func passOn(input int) string { return fmt.Sprintf("pass on input %d", input) }

// same records the exact key of what id names and flags a later key
// for the same id that differs.
func (t *tally) same(id, key string) {
	if t.keys == nil {
		t.keys = map[string]string{}
	}
	if k, ok := t.keys[id]; ok && k != key {
		t.wrong = append(t.wrong, fmt.Sprintf("%s is not deterministic: %q, earlier %q", id, key, k))
		return
	}
	t.keys[id] = key
}

// endToEnd measures the end-to-end metrics: fresh processes time set-up
// and peak memory, then this process runs an untimed warm-up pass and
// timed passes until the run's seconds are spent. Host times are scaled
// to the reference speed by the calibration loop run around each one.
func endToEnd(cfg config, w workload, out io.Writer) (result, error) {
	setups, _, _, err := runFresh(cfg, "setup", setupProcesses)
	if err != nil {
		return result{}, err
	}
	more, rss, keys, err := runFresh(cfg, "pass", passProcesses)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, more...)
	v, err := w.pass(0)
	if err != nil {
		return result{}, err
	}
	// The warm-up and the fresh processes' passes are not counted, but
	// their results must equal the timed pass on the same input.
	var t tally
	warm := w.check(0, v)
	t.wrong = append(t.wrong, warm.wrong...)
	for _, k := range append(keys, warm.key) {
		t.same(passOn(w.input(0)), k)
	}

	var walls, allocs, perCycle, unscaled, cals []float64
	var first outcome
	var m0, m1 runtime.MemStats
	dur := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	before := calibrate()
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		v, err := w.pass(i)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		after := calibrate()
		if err != nil {
			return result{}, err
		}
		scaled := wall * atRef(before, after)
		cals, unscaled = append(cals, after), append(unscaled, wall)
		before = after
		o := w.check(i, v)
		if i == 0 {
			first = o
		}
		t.add(w.input(i), o)
		walls = append(walls, scaled)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		if o.hostCycles > 0 {
			perCycle = append(perCycle, scaled*1e9/float64(o.hostCycles))
		}
	}

	fmt.Fprintf(out, "# %s seed %d: %d timed passes in %.1f s after %d fresh set-ups\n",
		cfg.workload, cfg.seed, len(walls), time.Since(start).Seconds(), len(setups))
	fmt.Fprintf(out, "# calibration loop %.2f ms (reference %.2f ms); unscaled wall_s %.4f s\n",
		median(cals)*1e3, calibrationRef*1e3, median(unscaled))
	reportFailures(out, cfg.workload, first)
	for _, s := range t.wrong {
		fmt.Fprintln(out, "# WRONG:", s)
	}
	okFrac := float64(t.attempted-t.failed-t.drifted) / float64(t.attempted)
	return result{
		Correct:   len(t.wrong) == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":               {median(setups), "s"},
			"wall_s":                {median(walls), "s"},
			"host_ns_per_sim_cycle": {median(perCycle), "ns"},
			"sim_cycles":            {float64(first.simCycles), "cycles"},
			"ok_frac":               {okFrac, "ratio"},
			"alloc_mb":              {median(allocs), "MB"},
			"max_rss_mb":            {median(rss), "MB"},
		},
	}, nil
}

// reportFailures prints a pass's failed cells and golden drift, and
// compares the failures with the cells recorded as failing when the
// benchmark was defined.
func reportFailures(out io.Writer, workload string, o outcome) {
	known := map[string]bool{}
	for _, c := range knownFailures[workload] {
		known[c] = true
	}
	var added []string
	for _, c := range o.failed {
		if !known[c] {
			added = append(added, c)
		}
		delete(known, c)
	}
	var fixed []string
	for c := range known {
		fixed = append(fixed, c)
	}
	sort.Strings(fixed)
	list, _ := json.Marshal(append([]string{}, o.failed...)) // a []string always marshals
	fmt.Fprintf(out, "# failed-cells: %s\n", list)
	fmt.Fprintf(out, "# failed %d, newly failing %q, fixed since recorded %q; golden drift cells %d\n",
		len(o.failed), added, fixed, o.drifted)
}

// runFresh starts n fresh processes in mode (see mainEnv) one after
// another. It returns their set-up times, from process start to
// readyLine and scaled to the reference speed, their peak resident sets
// and what they printed after readyLine: a pass's exact key, or nothing.
func runFresh(cfg config, mode string, n int) (setups, rss []float64, keys []string, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, nil, err
	}
	before := calibrate()
	for k := 0; k < n; k++ {
		cmd := exec.Command(exe, "-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-elements", strconv.FormatUint(uint64(cfg.elements), 10), "-golden", cfg.golden)
		cmd.Env = append(os.Environ(), mainEnv+"="+mode)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, nil, nil, fmt.Errorf("fresh process: %w", err)
		}
		// A failed read shows below as a failed Wait or a wrong readyLine.
		r := bufio.NewReader(pipe)
		ready, _ := r.ReadString('\n')
		setup := time.Since(t0)
		rest, _ := io.ReadAll(r)
		if err := cmd.Wait(); err != nil {
			return nil, nil, nil, fmt.Errorf("fresh process: %w", err)
		}
		if strings.TrimSpace(ready) != readyLine {
			return nil, nil, nil, fmt.Errorf("fresh process printed %q after set-up, want %q", ready, readyLine)
		}
		after := calibrate()
		setups = append(setups, setup.Seconds()*atRef(before, after))
		before = after
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = append(rss, float64(ru.Maxrss)*1024/1e6) // Linux reports KiB
		}
		keys = append(keys, strings.TrimSpace(string(rest)))
	}
	return setups, rss, keys, nil
}

// atRef is the factor that scales a host time measured between two
// calibration runs to the reference speed.
func atRef(before, after float64) float64 { return 2 * calibrationRef / (before + after) }

// median returns the middle value, or the mean of the middle two; 0 for
// no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
