// Copy-on-write Snapshot/Clone suite: clones must replay the seed
// golden bit-identically and never alias pooled buffers with their
// source, and every system reaches the checkpoint surface through the
// public API.
package pva

import (
	"encoding/json"
	"os"
	"sync"
	"testing"

	"pva/internal/memsys"
	"pva/internal/pvaunit"
)

// runSession replays a trace through a streaming Session and returns the
// result plus every ticket's final progress record, so a comparison can
// cover per-command issue and retire timestamps, not just totals.
func runSession(sys *pvaunit.System, tr Trace) (memsys.Result, []pvaunit.TicketInfo, error) {
	ses, err := sys.Open()
	if err != nil {
		return memsys.Result{}, nil, err
	}
	tickets := make([]pvaunit.Ticket, len(tr.Cmds))
	for i, c := range tr.Cmds {
		tk, err := ses.Issue(c)
		if err != nil {
			return memsys.Result{}, nil, err
		}
		tickets[i] = tk
	}
	if err := ses.Drain(); err != nil {
		return memsys.Result{}, nil, err
	}
	res, err := ses.Result()
	if err != nil {
		return memsys.Result{}, nil, err
	}
	infos := make([]pvaunit.TicketInfo, len(tickets))
	for i, tk := range tickets {
		info, err := ses.Poll(tk)
		if err != nil {
			return memsys.Result{}, nil, err
		}
		infos[i] = info
	}
	return res, infos, nil
}

// loadSeedGolden reads testdata/seed_cycles.json (the pre-refactor
// full-sweep cycle counts; see channels_test.go).
func loadSeedGolden(t *testing.T) []seedPoint {
	t.Helper()
	raw, err := os.ReadFile("testdata/seed_cycles.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []seedPoint
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// cloneFns maps each sweep system kind to a constructor producing an
// independent copy-on-write clone of a shared prototype, exercising
// pvaunit.System.Clone for the PVA systems and the Snapshot/NewSystem
// checkpoint path for the serial baselines.
func cloneFns(t *testing.T) map[string]func() memsys.System {
	t.Helper()
	protoFor := func(build func(Config) (System, error)) *pvaunit.System {
		s, err := build(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s.(*pvaunit.System)
	}
	sdram, sram := protoFor(NewSystem), protoFor(NewSRAMSystem)
	snapshotOf := func(s System) memsys.Checkpoint {
		sn, ok := s.(memsys.Snapshotter)
		if !ok {
			t.Fatalf("%s does not snapshot", s.Name())
		}
		return sn.Snapshot()
	}
	clSnap := snapshotOf(NewCacheLineSerial())
	gsSnap := snapshotOf(NewGatheringSerial())
	fromCheckpoint := func(cp memsys.Checkpoint) func() memsys.System {
		return func() memsys.System {
			s, err := cp.NewSystem()
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	return map[string]func() memsys.System{
		"pva-sdram":        func() memsys.System { return sdram.Clone() },
		"pva-sram":         func() memsys.System { return sram.Clone() },
		"cacheline-serial": fromCheckpoint(clSnap),
		"gathering-serial": fromCheckpoint(gsSnap),
	}
}

// TestCloneSeedCycleEquivalence replays the full 960-point seed golden,
// every cell on a fresh Clone() of a shared prototype, and demands the
// pre-refactor cycle counts bit for bit: cloned systems must be
// indistinguishable from freshly constructed ones.
func TestCloneSeedCycleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full 1024-element sweep")
	}
	want := loadSeedGolden(t)
	clones := cloneFns(t)
	for _, w := range want {
		mk, ok := clones[w.System]
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
			t.Errorf("%s stride %d align %d on clone of %s: %d cycles, seed had %d",
				w.Kernel, w.Stride, w.Align, w.System, res.Cycles, w.Cycles)
		}
	}
}

// TestCloneQuickEquivalence is the -short variant: one representative
// cell per system kind on a clone versus a fresh system.
func TestCloneQuickEquivalence(t *testing.T) {
	clones := cloneFns(t)
	fresh := map[string]func() memsys.System{
		"cacheline-serial": func() memsys.System { return NewCacheLineSerial() },
		"gathering-serial": func() memsys.System { return NewGatheringSerial() },
	}
	for _, static := range []bool{false, true} {
		name := map[bool]string{false: "pva-sdram", true: "pva-sram"}[static]
		cfg := DefaultConfig()
		fresh[name] = func() memsys.System {
			var s System
			var err error
			if static {
				s, err = NewSRAMSystem(cfg)
			} else {
				s, err = NewSystem(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	k, err := KernelByName("swap")
	if err != nil {
		t.Fatal(err)
	}
	p := PaperParams(19, 3)
	p.Elements = 128
	tr := k.Build(p)
	for name, mk := range clones {
		want, err := fresh[name]().Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mk().Run(tr)
		if err != nil {
			t.Fatalf("clone of %s: %v", name, err)
		}
		if got.Cycles != want.Cycles || got.Stats != want.Stats {
			t.Errorf("clone of %s: (%d cycles, %+v), fresh (%d cycles, %+v)",
				name, got.Cycles, got.Stats, want.Cycles, want.Stats)
		}
	}
}

// TestCloneNoAliasing is the mutate-after-clone pin: writes through a
// clone must never surface in its source or in sibling clones, and
// writes through the source must never surface in clones taken earlier —
// the copy-on-write store has to fork pages, not share mutable buffers.
func TestCloneNoAliasing(t *testing.T) {
	cfg := DefaultConfig()
	icfg, err := cfg.toInternal()
	if err != nil {
		t.Fatal(err)
	}
	src, err := pvaunit.New(icfg)
	if err != nil {
		t.Fatal(err)
	}
	writeTrace := func(base uint32, val uint32) Trace {
		data := make([]uint32, 32)
		for i := range data {
			data[i] = val + uint32(i)
		}
		return Trace{Cmds: []VectorCmd{{Op: Write, V: Vector{Base: base, Stride: 1, Length: 32}, Data: data}}}
	}
	const base = 4096
	clone1 := src.Clone()
	if _, err := clone1.Run(writeTrace(base, 0x11110000)); err != nil {
		t.Fatal(err)
	}
	if got := src.Peek(base); got != memsys.Fill(base) {
		t.Fatalf("clone write leaked into source: source[%d] = %#x", base, got)
	}
	clone2 := src.Clone()
	if got := clone2.Peek(base); got != memsys.Fill(base) {
		t.Fatalf("clone write leaked into sibling clone: clone2[%d] = %#x", base, got)
	}
	if _, err := src.Run(writeTrace(base, 0x22220000)); err != nil {
		t.Fatal(err)
	}
	if got := clone1.Peek(base); got != 0x11110000 {
		t.Fatalf("source write leaked into clone1: clone1[%d] = %#x", base, got)
	}
	if got := clone2.Peek(base); got != memsys.Fill(base) {
		t.Fatalf("source write leaked into clone2: clone2[%d] = %#x", base, got)
	}
	// A clone taken after the source mutated sees the mutated image.
	clone3 := src.Clone()
	if got := clone3.Peek(base); got != 0x22220000 {
		t.Fatalf("late clone missed source write: clone3[%d] = %#x", base, got)
	}
}

// TestCloneHotRowConcurrent runs four clones of one hot-row snapshot at
// once, five runs each, and demands every run time exactly as a lone
// clone does. The hot-row predictor trains on every access, so any
// predictor state the clones shared would be trained by all of them at
// once (and race under -race).
func TestCloneHotRowConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RowPolicy = "hotrow"
	src, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := src.(Snapshotter).Snapshot()
	k, err := KernelByName("vaxpy")
	if err != nil {
		t.Fatal(err)
	}
	p := PaperParams(19, 1)
	p.Elements = 512
	lone, err := snap.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	want, err := lone.Run(k.Build(p))
	if err != nil {
		t.Fatal(err)
	}
	const clones, runs = 4, 5
	got := make([][]uint64, clones)
	errs := make([]error, clones)
	var wg sync.WaitGroup
	for c := 0; c < clones; c++ {
		sys, err := snap.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := k.Build(p)
			for r := 0; r < runs; r++ {
				res, err := sys.Run(tr)
				if err != nil {
					errs[c] = err
					return
				}
				got[c] = append(got[c], res.Cycles)
			}
		}()
	}
	wg.Wait()
	for c := range got {
		if errs[c] != nil {
			t.Fatalf("clone %d: %v", c, errs[c])
		}
		for r, cycles := range got[c] {
			if cycles != want.Cycles {
				t.Errorf("clone %d run %d: %d cycles, a lone clone takes %d", c, r, cycles, want.Cycles)
			}
		}
	}
}

// TestPublicSnapshotterSurface: the re-exported Snapshotter/Checkpoint
// aliases make checkpoint/clone reachable from the public API — all
// four constructed systems implement it, and a public-surface clone
// replays a run bit-identically to its source.
func TestPublicSnapshotterSurface(t *testing.T) {
	mk := map[string]func() (System, error){
		"pva-sdram":        func() (System, error) { return NewSystem(DefaultConfig()) },
		"pva-sram":         func() (System, error) { return NewSRAMSystem(DefaultConfig()) },
		"cacheline-serial": func() (System, error) { return NewCacheLineSerial(), nil },
		"gathering-serial": func() (System, error) { return NewGatheringSerial(), nil },
	}
	k, err := KernelByName("saxpy")
	if err != nil {
		t.Fatal(err)
	}
	p := PaperParams(19, 2)
	p.Elements = 128
	tr := k.Build(p)
	for name, f := range mk {
		src, err := f()
		if err != nil {
			t.Fatal(err)
		}
		sn, ok := src.(Snapshotter)
		if !ok {
			t.Fatalf("%s does not implement pva.Snapshotter", name)
		}
		var cp Checkpoint = sn.Snapshot()
		clone, err := cp.NewSystem()
		if err != nil {
			t.Fatal(err)
		}
		want, err := src.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := clone.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.Stats != want.Stats {
			t.Fatalf("%s: clone diverged: cycles %d vs %d", name, got.Cycles, want.Cycles)
		}
	}
}
