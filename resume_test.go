// Durable-checkpoint equivalence suite: a memory image serialized with
// internal/ckptio, decoded from its own bytes, and restored into a fresh
// system must warm-start bit-identically to the in-memory checkpoint
// path — pinned against the pre-refactor full-sweep seed golden. Plus
// the public surface of the crash-safe sweep: SweepOptions.Validate and
// ResumableSweep.
package pva

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pva/internal/ckptio"
	"pva/internal/memsys"
)

// durableFns maps each sweep system kind to a constructor producing a
// fresh system whose memory has been round-tripped through the durable
// checkpoint encoding: capture the prototype's image, Encode, Decode,
// RestoreImage into a newly built instance.
func durableFns(t *testing.T) map[string]func() memsys.System {
	t.Helper()
	build := map[string]func() memsys.System{
		"cacheline-serial": func() memsys.System { return NewCacheLineSerial() },
		"gathering-serial": func() memsys.System { return NewGatheringSerial() },
	}
	for _, static := range []bool{false, true} {
		static := static
		name := map[bool]string{false: "pva-sdram", true: "pva-sram"}[static]
		build[name] = func() memsys.System {
			var s System
			var err error
			if static {
				s, err = NewSRAMSystem(DefaultConfig())
			} else {
				s, err = NewSystem(DefaultConfig())
			}
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	out := map[string]func() memsys.System{}
	for name, mk := range build {
		mk := mk
		proto, ok := mk().(ImageSnapshotter)
		if !ok {
			t.Fatalf("%s does not implement pva.ImageSnapshotter", name)
		}
		var buf bytes.Buffer
		if err := ckptio.Encode(&buf, ckptio.Checkpoint{ConfigHash: 1, Image: proto.MemoryImage()}); err != nil {
			t.Fatal(err)
		}
		cp, err := ckptio.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		out[name] = func() memsys.System {
			s := mk()
			s.(ImageSnapshotter).RestoreImage(cp.Image)
			return s
		}
	}
	return out
}

// TestCkptSeedCycleEquivalence replays the full 960-point seed golden,
// every cell on a fresh system warm-started from a decoded durable
// checkpoint, and demands the pre-refactor cycle counts bit for bit:
// the on-disk encoding must be a lossless transport for the in-memory
// copy-on-write image.
func TestCkptSeedCycleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1024-element sweep")
	}
	want := loadSeedGolden(t)
	durable := durableFns(t)
	for _, w := range want {
		mk, ok := durable[w.System]
		if !ok {
			t.Fatalf("golden row names unknown system %q", w.System)
		}
		k, err := KernelByName(w.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mk().Run(k.Build(PaperParams(w.Stride, w.Align)))
		if err != nil {
			t.Fatalf("%s stride %d align %d on %s: %v", w.Kernel, w.Stride, w.Align, w.System, err)
		}
		if res.Cycles != w.Cycles {
			t.Errorf("%s stride %d align %d on decoded checkpoint of %s: %d cycles, seed had %d",
				w.Kernel, w.Stride, w.Align, w.System, res.Cycles, w.Cycles)
		}
	}
}

// TestCkptQuickEquivalence is the -short variant: one representative
// cell per system kind, decoded-checkpoint warm start versus a fresh
// build.
func TestCkptQuickEquivalence(t *testing.T) {
	durable := durableFns(t)
	k, err := KernelByName("tridiag")
	if err != nil {
		t.Fatal(err)
	}
	p := PaperParams(8, 1)
	p.Elements = 128
	tr := k.Build(p)
	fresh := map[string]func() (System, error){
		"pva-sdram":        func() (System, error) { return NewSystem(DefaultConfig()) },
		"pva-sram":         func() (System, error) { return NewSRAMSystem(DefaultConfig()) },
		"cacheline-serial": func() (System, error) { return NewCacheLineSerial(), nil },
		"gathering-serial": func() (System, error) { return NewGatheringSerial(), nil },
	}
	for name, mk := range durable {
		f, err := fresh[name]()
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mk().Run(tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Cycles != want.Cycles || got.Stats != want.Stats {
			t.Errorf("%s: decoded checkpoint run (%d cycles) diverged from fresh (%d cycles)",
				name, got.Cycles, want.Cycles)
		}
	}
}

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
