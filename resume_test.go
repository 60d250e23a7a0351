// The public surface of the crash-safe sweep: SweepOptions.Validate and
// ResumableSweep.
package pva

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestSweepOptionsValidate pins the option validation the CLIs rely on
// (pvasim calls Validate alone) and the grid-axis checks ValidateGrid
// adds for a sweep.
func TestSweepOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    SweepOptions
		ok   bool
	}{
		{"zero", SweepOptions{}, true},
		{"full policy", SweepOptions{CellTimeout: time.Second, Retries: 2, RetryBackoff: time.Millisecond, Workers: 4}, true},
		{"retries without backoff", SweepOptions{Retries: 3}, true},
		{"negative timeout", SweepOptions{CellTimeout: -time.Second}, false},
		{"negative retries", SweepOptions{Retries: -1}, false},
		{"negative backoff", SweepOptions{Retries: 1, RetryBackoff: -time.Millisecond}, false},
		{"backoff without retries", SweepOptions{RetryBackoff: time.Millisecond}, false},
		{"negative workers", SweepOptions{Workers: -2}, false},
		{"salp back end", SweepOptions{Tech: "salp", Subarrays: 4}, true},
		{"unknown back end", SweepOptions{Tech: "bogus"}, false},
		{"subarrays not a power of two", SweepOptions{Tech: "salp", Subarrays: 3}, false},
		{"partitions on salp", SweepOptions{Tech: "salp", Partitions: 4}, false},
		{"bad decoder", SweepOptions{AddrMap: "sudoku"}, false},
	}
	for _, c := range cases {
		err := c.o.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	grids := []struct {
		name string
		g    Grid
		ok   bool
	}{
		{"grid axes", Grid{Kernels: []string{"copy", "gather"}, Strides: []uint32{1, 19},
			Systems: []SystemKind{PVASDRAM}, Channels: []uint32{1, 4}, Techs: []string{"sdram", "salp-8", "pcm-4p"}}, true},
		{"unknown kernel", Grid{Kernels: []string{"nope"}}, false},
		{"unknown system", Grid{Systems: []SystemKind{7}}, false},
		{"channels not a power of two", Grid{Channels: []uint32{3}}, false},
		{"zero channels", Grid{Channels: []uint32{0}}, false},
		{"decoder at each channel count", Grid{Channels: []uint32{1, 8}}, true},
		{"unknown back-end label", Grid{Techs: []string{"bogus"}}, false},
		{"back-end label without a count", Grid{Techs: []string{"salp"}}, false},
		{"salp-3", Grid{Techs: []string{"salp-3"}}, false},
		{"pcm-0p", Grid{Techs: []string{"pcm-0p"}}, false},
		{"repeated kernel", Grid{Kernels: []string{"copy", "copy"}}, false},
		{"repeated stride", Grid{Strides: []uint32{4, 4}}, false},
		{"repeated system", Grid{Systems: []SystemKind{PVASRAM, PVASRAM}}, false},
		{"repeated channel count", Grid{Channels: []uint32{2, 2}}, false},
		{"repeated back end", Grid{Techs: []string{"sdram", "salp-4", "salp-4"}}, false},
	}
	for _, c := range grids {
		err := ValidateGrid(c.g, SweepOptions{AddrMap: "xor"})
		if (err == nil) != c.ok {
			t.Errorf("%s: ValidateGrid() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if err := ValidateGrid(Grid{}, SweepOptions{Retries: -1}); err == nil {
		t.Error("ValidateGrid accepted options Validate rejects")
	}
}

// TestPublicResumableSweep exercises the exported crash-safe sweep end
// to end: a journaled run, a full-replay rerun, a flag-change refusal,
// and equality with the plain sweep.
func TestPublicResumableSweep(t *testing.T) {
	o := SweepOptions{Elements: 128, Workers: 2}
	g := Grid{Kernels: []string{"scale"}, Strides: []uint32{1, 19}, Systems: []SystemKind{PVASDRAM, CacheLineSerial}}
	plain, err := SweepWithOptions(g, o)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "journal")
	out, err := ResumableSweep(g, dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err() != nil {
		t.Fatalf("manifest not clean: %v", out.Err())
	}
	if !reflect.DeepEqual(out.Points, plain) {
		t.Fatal("journaled sweep diverged from the plain sweep")
	}
	again, err := ResumableSweep(g, dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != len(plain) || !reflect.DeepEqual(again.Points, plain) {
		t.Fatalf("rerun replayed %d of %d cells or diverged", again.Resumed, len(plain))
	}
	changed := o
	changed.Elements = 256
	if _, err := ResumableSweep(g, dir, changed); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("changed flags: got %v, want ErrJournalMismatch", err)
	}
	if _, err := ResumableSweep(g, dir, SweepOptions{Elements: 128, Retries: -1}); err == nil {
		t.Fatal("invalid options accepted")
	}
}
