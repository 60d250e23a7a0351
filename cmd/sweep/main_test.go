package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"pva"
)

// sweepRun invokes the CLI entry point in-process.
func sweepRun(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
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
// same flags must replay every cell and produce byte-identical JSON.
func TestSweepJournalResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	args := []string{"-kernels", "scale", "-elements", "64", "-journal", dir, "-json"}
	code, first, stderr := sweepRun(args...)
	if code != 0 {
		t.Fatalf("journaled sweep exited %d\nstderr: %s", code, stderr)
	}
	code, second, stderr := sweepRun(args...)
	if code != 0 {
		t.Fatalf("resumed sweep exited %d\nstderr: %s", code, stderr)
	}
	if first != second {
		t.Fatal("resumed sweep output is not byte-identical to the original run")
	}
	// Changed flags must refuse the journal rather than merge.
	code, _, stderr = sweepRun("-kernels", "scale", "-elements", "128", "-journal", dir, "-json")
	if code != 1 || !strings.Contains(stderr, "journal") {
		t.Fatalf("changed flags: exit %d, stderr %q", code, stderr)
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
