package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pva"
)

var update = flag.Bool("update", false, "rewrite the report goldens under testdata/")

// sweepRun invokes the CLI entry point in-process.
func sweepRun(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestSweepGoldens regenerates the sweep's reports and diffs them
// against testdata/: at 64 elements the figure set, the raw JSON points
// (gzipped), the channel-scaling table and the back-end table; and the
// autotuner's JSON for EXPERIMENTS.md's table and for a small
// three-kernel search, which pin every search's winner, cycles and
// evaluation counts across commits. The trailing timing line of a text
// report is not part of its golden.
// go test ./cmd/sweep -run TestSweepGoldens -update rewrites them.
func TestSweepGoldens(t *testing.T) {
	for _, c := range []struct {
		file string
		args []string
	}{
		{"figures_e64.txt", []string{"-elements", "64"}},
		{"points_e64.json.gz", []string{"-elements", "64", "-json"}},
		{"channels_e64.txt", []string{"-elements", "64", "-channels", "1,2,4"}},
		{"techs_e64.txt", []string{"-elements", "64", "-tech", "sdram,salp-2,salp-4,salp-8,pcm-4p"}},
		{"autotune_e1024.json", []string{"-autotune", "-json", "-seed", "1", "-restarts", "10", "-survivors", "8", "-elements", "1024"}},
		{"autotune_e256.json", []string{"-autotune", "-json", "-seed", "7", "-elements", "256", "-kernels", "swap,gather,spmv"}},
	} {
		code, got, stderr := sweepRun(c.args...)
		if code != 0 {
			t.Fatalf("%s: exit %d\nstderr: %s", c.file, code, stderr)
		}
		gz := strings.HasSuffix(c.file, ".gz")
		if strings.HasSuffix(c.file, ".txt") {
			got = got[:strings.LastIndex(strings.TrimSuffix(got, "\n"), "\n")+1]
		}
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := writeGolden(path, got, gz); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := readGolden(path, gz)
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
				t.Errorf("%s differs from the golden first at line %d:\ngot  %q\nwant %q",
					c.file, i+1, line(gl, i), line(wl, i))
				break
			}
		}
	}
}

func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}

func readGolden(path string, gz bool) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var r io.Reader = f
	if gz {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return "", err
		}
		r = zr
	}
	b, err := io.ReadAll(r)
	return string(b), err
}

func writeGolden(path, data string, gz bool) error {
	if !gz {
		return os.WriteFile(path, []byte(data), 0o644)
	}
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		return err
	}
	if _, err := zw.Write([]byte(data)); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// TestSweepFailureExitsNonzeroWithCoordinates is the worker-error
// regression pin: a cell failing inside the sweep (here: a 2-cycle
// watchdog window no PVA run can satisfy) must exit nonzero and print
// the failing cell's coordinates, never exit 0 with a partial grid.
func TestSweepFailureExitsNonzeroWithCoordinates(t *testing.T) {
	code, _, stderr := sweepRun("-kernels", "copy", "-elements", "64", "-watchdog", "2")
	if code == 0 {
		t.Fatalf("failing sweep exited 0\nstderr: %s", stderr)
	}
	for _, want := range []string{"sweep:", "copy", "stride", "align", "pva-"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr does not name the failing cell (%q missing):\n%s", want, stderr)
		}
	}
}

// TestSweepIsolatePartialSuccess: with -isolate the same poisoned sweep
// must quarantine the PVA cells, name every one of them on stderr, still
// emit the completed serial-baseline grid, and exit 3.
func TestSweepIsolatePartialSuccess(t *testing.T) {
	code, stdout, stderr := sweepRun("-kernels", "copy", "-elements", "64", "-watchdog", "2", "-isolate", "-json")
	if code != 3 {
		t.Fatalf("exit %d, want 3 (partial success)\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "quarantined") || !strings.Contains(stderr, "copy stride") {
		t.Errorf("stderr manifest does not name the quarantined cells:\n%s", stderr)
	}
	// The serial baselines ignore the watchdog, so their grid completes
	// and is emitted despite the failures.
	for _, want := range []string{"cacheline-serial", "gathering-serial"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("completed grid missing %s points:\n%.400s", want, stdout)
		}
	}
	if strings.Contains(stdout, `"pva-sdram"`) {
		t.Error("quarantined pva-sdram cells leaked into the emitted grid")
	}
}

// TestSweepJournalResume: a journaled run followed by a rerun with the
// same flags must replay every cell and produce byte-identical JSON, on
// one machine and on a grid over channel counts and back ends.
func TestSweepJournalResume(t *testing.T) {
	for _, axes := range [][]string{nil, {"-channels", "1,2", "-tech", "sdram,pcm-4p"}} {
		dir := filepath.Join(t.TempDir(), "journal")
		args := append([]string{"-kernels", "scale", "-elements", "64", "-journal", dir, "-json"}, axes...)
		code, first, stderr := sweepRun(args...)
		if code != 0 {
			t.Fatalf("%v: journaled sweep exited %d\nstderr: %s", axes, code, stderr)
		}
		if _, err := os.Stat(filepath.Join(dir, "sweep.journal")); err != nil {
			t.Fatalf("%v: no journal written: %v", axes, err)
		}
		code, second, stderr := sweepRun(args...)
		if code != 0 {
			t.Fatalf("%v: resumed sweep exited %d\nstderr: %s", axes, code, stderr)
		}
		if first != second {
			t.Fatalf("%v: resumed sweep output is not byte-identical to the original run", axes)
		}
		// Changed flags must refuse the journal rather than merge.
		for _, changed := range [][]string{{"-elements", "128"}, {"-channels", "1,4"}, {"-tech", "sdram,salp-4"}} {
			code, _, stderr = sweepRun(append(args, changed...)...)
			if code != 1 || !strings.Contains(stderr, "journal") {
				t.Fatalf("%v changed by %v: exit %d, stderr %q", axes, changed, code, stderr)
			}
		}
	}
}

// TestSweepRejectsBadAxes: an unknown or invalid back end, a channel
// count the decoder cannot split, a value an axis lists twice, and a
// vector length no kernel trace can be built at are usage errors (exit
// 2), caught before any simulation starts.
func TestSweepRejectsBadAxes(t *testing.T) {
	for _, args := range [][]string{
		{"-tech", "bogus"},
		{"-tech", "salp"},
		{"-tech", "salp-3"},
		{"-tech", "sdram,sdram"},
		{"-channels", "3"},
		{"-channels", "2,2"},
		{"-channels", "0"},
		{"-channels", ",,"},
		{"-kernels", "copy,copy"},
		{"-kernels", "nope"},
		{"-elements", "48"},
	} {
		code, _, stderr := sweepRun(append([]string{"-elements", "64"}, args...)...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2\nstderr: %s", args, code, stderr)
		}
	}
}

// TestSweepRejectsBadPolicyFlags: invalid failure-policy combinations
// are usage errors (exit 2), caught before any simulation starts.
func TestSweepRejectsBadPolicyFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-retries", "-1"},
		{"-cell-timeout", "-5s"},
		{"-retry-backoff", "1s"}, // backoff without retries
	} {
		code, _, stderr := sweepRun(args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2\nstderr: %s", args, code, stderr)
		}
	}
}

// TestSweepAutotuneCLI runs a tiny budgeted decoder search end to end
// through the CLI: the tuned winner must beat or match every fixed
// decoder on the searched workload (the landmarks are always promoted,
// so this is structural), carry a parseable tuned spec, and print the
// rendered table on the text path. Bad decoder specs passed to
// -addrmap must be rejected up front with the valid-name list.
func TestSweepAutotuneCLI(t *testing.T) {
	code, stdout, stderr := sweepRun("-autotune", "-kernels", "scale", "-elements", "128",
		"-seed", "7", "-restarts", "2", "-json")
	if code != 0 {
		t.Fatalf("autotune exited %d\nstderr: %s", code, stderr)
	}
	var points []pva.AutotunePoint
	if err := json.Unmarshal([]byte(stdout), &points); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	if len(points) != 1 || points[0].Kernel != "scale" {
		t.Fatalf("unexpected points: %+v", points)
	}
	p := points[0]
	if !strings.HasPrefix(p.Spec, "tuned:") {
		t.Errorf("winner spec %q not a tuned spec", p.Spec)
	}
	if p.Tuned > p.Word || p.Tuned > p.Line || p.Tuned > p.Xor {
		t.Errorf("tuned %d lost to a fixed decoder: %+v", p.Tuned, p)
	}
	if _, err := pva.ParseAddrMap(p.Spec, 1); err != nil {
		t.Errorf("winner spec does not round-trip: %v", err)
	}

	code, stdout, _ = sweepRun("-autotune", "-kernels", "scale", "-elements", "128",
		"-seed", "7", "-restarts", "2")
	if code != 0 || !strings.Contains(stdout, "address-map autotuning") {
		t.Errorf("text path: code %d, output:\n%s", code, stdout)
	}

	code, _, stderr = sweepRun("-kernels", "scale", "-elements", "64", "-addrmap", "fancy")
	if code != 2 {
		t.Fatalf("bad -addrmap exited %d, want 2", code)
	}
	for _, want := range []string{`"fancy"`, "word", "line", "xor", "tuned:"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("bad-decoder error missing %q:\n%s", want, stderr)
		}
	}

	// A flag the selected mode would ignore is a usage error naming the
	// flag: the search reads no sweep machine, fault or policy flag, and
	// a sweep reads no search budget.
	search := []string{"-autotune", "-kernels", "scale", "-elements", "64"}
	for _, c := range []struct {
		args  []string
		named []string
	}{
		{append(search, "-channels", "2"), []string{"-channels"}},
		{append(search, "-tech", "pcm-4p"), []string{"-tech"}},
		{append(search, "-addrmap", "xor"), []string{"-addrmap"}},
		{append(search, "-verify"), []string{"-verify"}},
		{append(search, "-watchdog", "5"), []string{"-watchdog"}},
		{append(search, "-fault-seed", "3", "-fault-rate", "0.1"), []string{"-fault-seed", "-fault-rate"}},
		{append(search, "-journal", t.TempDir()), []string{"-journal"}},
		{append(search, "-isolate", "-cell-timeout", "1s", "-retries", "1", "-retry-backoff", "1ms"),
			[]string{"-isolate", "-cell-timeout", "-retries", "-retry-backoff"}},
		{[]string{"-kernels", "scale", "-elements", "64", "-seed", "7"}, []string{"-seed"}},
		{[]string{"-kernels", "scale", "-elements", "64", "-restarts", "2", "-survivors", "3"}, []string{"-restarts", "-survivors"}},
	} {
		code, stdout, stderr := sweepRun(c.args...)
		if code != 2 || stdout != "" {
			t.Errorf("%v: exit %d, want 2 with no output\nstderr: %s", c.args, code, stderr)
		}
		for _, name := range c.named {
			if !strings.Contains(stderr, name) {
				t.Errorf("%v: error does not name %s:\n%s", c.args, name, stderr)
			}
		}
	}
}

// TestSweepAutotuneRejectsNegativeBudget: a negative -restarts or
// -survivors is reported as an error naming the budget field, with a
// non-zero exit, never a panic and its goroutine dump.
func TestSweepAutotuneRejectsNegativeBudget(t *testing.T) {
	for _, c := range []struct{ flag, field string }{
		{"-survivors", "Survivors"},
		{"-restarts", "Restarts"},
	} {
		code, _, stderr := sweepRun("-autotune", "-kernels", "copy", "-elements", "64", c.flag, "-1")
		if code == 0 {
			t.Errorf("%s -1 exited 0", c.flag)
		}
		if !strings.Contains(stderr, c.field) || strings.Contains(stderr, "goroutine") {
			t.Errorf("%s -1: stderr does not name %s cleanly:\n%s", c.flag, c.field, stderr)
		}
	}
}
