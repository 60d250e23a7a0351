package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pva/internal/fault"
	"pva/internal/harness"
)

// TestMain runs the benchmark instead of the tests when the benchmark
// re-executes this binary as one of its fresh processes.
func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) map[int]map[string]string {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	out := map[int]map[string]string{0: {}, 1: {}}
	for _, m := range d.EndToEnd {
		out[0][m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		out[1][m.Name] = m.Unit
	}
	return out
}

// smoke runs the benchmark in this process at a reduced size and
// returns its result line and the failed-cell line before it.
func smoke(t *testing.T, workload, trace string) (result, string) {
	t.Helper()
	var buf bytes.Buffer
	args := []string{"-workload", workload, "-seed", "7", "-seconds", "0.2", "-trace", trace,
		"-elements", "64", "-golden", "../testdata/seed_cycles.json",
		"-spans", filepath.Join(t.TempDir(), "spans.json")}
	if code := run(args, &buf); code != 0 {
		t.Fatalf("%s -trace %s exited %d:\n%s", workload, trace, code, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, buf.String())
	}
	failed := ""
	for _, l := range lines {
		if strings.HasPrefix(l, "# failed-cells: ") {
			failed = l
		}
	}
	return res, failed
}

// TestSmokeRepeats runs every workload at a reduced size, untraced and
// traced, twice each: every metric BENCHMARK.json declares is printed
// with its unit, and the exact metrics and the failed-cell list repeat.
func TestSmokeRepeats(t *testing.T) {
	want := loadDeclared(t)
	for _, w := range workloadNames {
		for trace, names := range want {
			tr := []string{"0", "1"}[trace]
			a, af := smoke(t, w, tr)
			b, bf := smoke(t, w, tr)
			for _, r := range []result{a, b} {
				if !r.Correct || r.Attempted < 1 {
					t.Errorf("%s -trace %s: correct %v, attempted %d", w, tr, r.Correct, r.Attempted)
				}
				got := map[string]string{}
				for n, m := range r.Metrics {
					got[n] = m.Unit
				}
				if !reflect.DeepEqual(got, names) {
					t.Errorf("%s -trace %s metrics %v, BENCHMARK.json declares %v", w, tr, got, names)
				}
			}
			if af != bf {
				t.Errorf("%s -trace %s failed cells differ: %q vs %q", w, tr, af, bf)
			}
			for n := range names {
				if !exact(trace, n) {
					continue
				}
				if x, y := a.Metrics[n].Value, b.Metrics[n].Value; x != y {
					t.Errorf("%s -trace %s: exact metric %s was %v, then %v", w, tr, n, x, y)
				}
			}
		}
	}
}

// exact reports whether a metric is a simulated figure that must repeat
// bit for bit on the same seed.
func exact(trace int, name string) bool {
	if trace == 0 {
		return name == "sim_cycles" || name == "ok_frac"
	}
	for _, l := range layerRows {
		if l.name == name {
			return !l.timed
		}
	}
	return false
}

// TestKnownFailuresAtTenTimesWindow runs the indexed workload's SpMV
// cells, where the seed deadlocks, at the benchmark's watchdog window
// and at ten times it: the same cells fail at both, every failure is a
// watchdog deadlock, and none is outside the recorded list.
func TestKnownFailuresAtTenTimesWindow(t *testing.T) {
	w, err := newWorkload("indexed-4ch-pcm", 1, 1024, "")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, c := range knownFailures["indexed-4ch-pcm"] {
		known[c] = true
	}
	var sets [2][]string
	for k, window := range []uint64{watchdog, 10 * watchdog} {
		r := w.(*sweep).runner
		r.Watchdog = window
		out, err := r.ResumableSweep([]string{"spmv"}, nil, nil, workers, harness.JournalConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range out.Failures {
			name := cellName(f.Kernel, f.Stride, f.Alignment, f.System)
			if !known[name] {
				t.Errorf("window %d: %s fails and is not a recorded failure", window, name)
			}
			if !strings.Contains(f.Err, fault.ErrDeadlock.Error()) {
				t.Errorf("window %d: %s fails with %s", window, name, f.Err)
			}
			sets[k] = append(sets[k], name)
		}
		sort.Strings(sets[k])
	}
	if !reflect.DeepEqual(sets[0], sets[1]) {
		t.Errorf("failing cells differ at ten times the window: %q vs %q", sets[0], sets[1])
	}
	if len(sets[0]) < len(known) {
		t.Logf("recorded failures now completing: %d of %d still fail", len(sets[0]), len(known))
	}
}

// TestGoldenCoversPaperGrid checks that the seed golden holds exactly
// the paper-grid's cells, so a drift count of 0 means every cell matched.
func TestGoldenCoversPaperGrid(t *testing.T) {
	g, err := loadGolden("../testdata/seed_cycles.json")
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorkload("paper-grid", 1, 64, "")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.(*sweep).plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != len(g) {
		t.Fatalf("plan has %d cells, golden %d", len(plan), len(g))
	}
	for _, c := range plan {
		if _, ok := g[cellName(c.kernel.Name, c.stride, c.align, c.system)]; !ok {
			t.Errorf("golden lacks %s", cellName(c.kernel.Name, c.stride, c.align, c.system))
		}
	}
}

// TestCalibrateAllocatesNothing holds the calibration loop to its
// condition: it allocates nothing, so that the heap a pass leaves behind
// cannot change the time the host times are scaled by.
func TestCalibrateAllocatesNothing(t *testing.T) {
	calibrate()
	if n := testing.AllocsPerRun(3, func() { calibrate() }); n != 0 {
		t.Errorf("calibrate allocates %v times per run", n)
	}
}
