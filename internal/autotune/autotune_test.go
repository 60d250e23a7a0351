package autotune

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pva/internal/addrmap"
	"pva/internal/kernels"
	"pva/internal/memsys"
	"pva/internal/pvaunit"
)

// testWorkload is a small multi-stride mix: no single fixed decoder is
// ideal for all three strides, which is exactly the regime the tuner is
// for. 64-element vectors keep the full simulations fast.
func testWorkload(t *testing.T, name string) Workload {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return KernelWorkload(k, []uint32{1, 4, 19}, 0, 64)
}

// TestAutotuneSearchDeterministic pins the Result to the seed alone:
// rerunning, pooling the climbs and the full simulations, capping the
// toggleable bits, and handing the pool more starts than it has workers
// must all reproduce the serial search bit for bit.
// The CI race job runs it at GOMAXPROCS 1, 2 and 8.
func TestAutotuneSearchDeterministic(t *testing.T) {
	w := testWorkload(t, "copy")
	for _, opts := range []Options{
		{Seed: 42, Restarts: 3},
		{Seed: 42, Restarts: 9}, // 11 starts: more than the climbing tasks below GOMAXPROCS 11
		{Seed: 5, Restarts: 2, MaskBits: 3},
	} {
		serial := opts
		serial.Workers = 1
		a, err := Search(w, serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Search(w, serial)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v: same seed, different results:\n%+v\n%+v", opts, a, b)
		}

		pooled := opts // Workers 0: fan out over GOMAXPROCS goroutines
		c, err := Search(w, pooled)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, c) {
			t.Fatalf("%+v: serial and pooled disagree:\nserial %+v\npooled %+v", opts, a, c)
		}
	}
}

// TestAutotuneRejectsBadOptions: a negative budget or a shape beyond the
// surrogate's unit labels is an error naming the field, not a panic or a
// silently clamped search.
func TestAutotuneRejectsBadOptions(t *testing.T) {
	w := testWorkload(t, "copy")
	for _, c := range []struct {
		o    Options
		want string
	}{
		{Options{Restarts: -1}, "Restarts"},
		{Options{Survivors: -1}, "Survivors"},
		{Options{Channels: 256, Banks: 512}, "Channels*Banks"},
	} {
		res, err := Search(w, c.o)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, %v; want an error naming %s", c.o, res, err, c.want)
		}
	}
}

func TestAutotuneSeedChangesRestarts(t *testing.T) {
	w := testWorkload(t, "copy")
	a, err := Search(w, Options{Seed: 1, Restarts: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(w, Options{Seed: 2, Restarts: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds may still converge to the same winner; what must
	// hold is that both are internally consistent and neither loses to
	// the fixed baselines.
	for _, r := range []*Result{a, b} {
		if _, best := r.BestFixed(); r.Best.Cycles > best {
			t.Fatalf("seed run lost to fixed baseline: best %d vs %d", r.Best.Cycles, best)
		}
	}
}

func TestAutotuneNeverLosesToWordOrXOR(t *testing.T) {
	for _, name := range []string{"copy", "saxpy", "tridiag"} {
		w := testWorkload(t, name)
		res, err := Search(w, Options{Seed: 7, Restarts: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// The unrefined landmarks are always promoted, so the measured
		// winner is at most the word and xor totals by construction.
		for _, base := range []string{"word", "xor"} {
			if res.Best.Cycles > res.Baselines[base] {
				t.Errorf("%s: tuned %d cycles worse than %s %d", name, res.Best.Cycles, base, res.Baselines[base])
			}
		}
		if res.Best.Spec == "" || res.Best.Cycles == 0 {
			t.Errorf("%s: winner missing evidence: %+v", name, res.Best)
		}
	}
}

// TestAutotuneLadderCounts pins the full rung's cost: one simulation
// per survivor, plus one per fixed decoder whose address function no
// survivor computes. The landmarks cover word and xor at every channel
// count, and word covers line at one channel; at four channels line
// runs on its own. Every reused baseline must equal a simulation of the
// fixed decoder itself.
func TestAutotuneLadderCounts(t *testing.T) {
	w := testWorkload(t, "saxpy")
	for _, c := range []struct {
		channels uint32
		ownRuns  int // fixed decoders simulated on their own
	}{{1, 0}, {4, 1}} {
		o := Options{Seed: 3, Restarts: 2, Workers: 1, Channels: c.channels}
		res, err := Search(w, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.SurrogateEvals == 0 {
			t.Fatal("surrogate rung never ran")
		}
		if want := len(res.Survivors) + c.ownRuns; res.FullEvals != want {
			t.Fatalf("%d channels: FullEvals = %d, want %d (survivors %d + %d fixed decoders matching none)",
				c.channels, res.FullEvals, want, len(res.Survivors), c.ownRuns)
		}
		if res.SurrogateEvals < res.FullEvals {
			t.Fatalf("ladder inverted: %d surrogate vs %d full evaluations", res.SurrogateEvals, res.FullEvals)
		}
		for i := 1; i < len(res.Survivors); i++ {
			if res.Survivors[i-1].Cycles > res.Survivors[i].Cycles {
				t.Fatalf("survivors not sorted by cycles: %+v", res.Survivors)
			}
		}
		s, err := newSearcher(w, o)
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range res.Baselines {
			d, err := addrmap.Parse(name, c.channels, 16, 32)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.fullCycles(d)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%d channels: baseline %s = %d, a simulation of it gives %d", c.channels, name, got, want)
			}
		}
	}
}

func TestAutotuneEmptyWorkload(t *testing.T) {
	if _, err := Search(Workload{Name: "empty"}, Options{}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestAutotuneMultiChannelShape(t *testing.T) {
	w := testWorkload(t, "copy")
	res, err := Search(w, Options{Seed: 11, Restarts: 2, Channels: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []string{"word", "xor"} {
		if res.Best.Cycles > res.Baselines[base] {
			t.Fatalf("4-channel tuned %d worse than %s %d", res.Best.Cycles, base, res.Baselines[base])
		}
	}
}

// TestSameFunctionSameResult pins the premise of Search's baseline
// reuse: two decoders with the same address function give identical
// Results (cycles, Stats, per-channel Stats and read data), whichever
// path the front end takes. word runs the controllers' closed-form hit
// math; tuned, xor and line hand them pre-claimed element lists. The
// grid is SDRAM and 4-partition PCM, every kernel at the paper strides
// and all five alignments, 256 elements.
func TestSameFunctionSameResult(t *testing.T) {
	strides := []uint32{1, 2, 4, 8, 16, 19} // the paper's
	if testing.Short() {
		strides = []uint32{1, 19}
	}
	var traces []memsys.Trace
	var names []string
	for _, k := range append(kernels.All(), kernels.Indexed()...) {
		for _, st := range strides {
			for al := 0; al < kernels.Alignments; al++ {
				p := kernels.PaperParams(st, al)
				p.Elements = 256
				traces = append(traces, k.Build(p))
				names = append(names, fmt.Sprintf("%s stride %d align %d", k.Name, st, al))
			}
		}
	}
	type pair struct {
		channels uint32
		a, b     string
	}
	var pairs []pair
	for _, c := range []uint32{1, 2, 4} {
		pairs = append(pairs,
			pair{c, "word", addrmap.MustTuned(c, 16, nil).String()},
			pair{c, "xor", addrmap.MustTuned(c, 16, addrmap.XORFoldMasks(c, 16)).String()})
	}
	pairs = append(pairs, pair{1, "line", "word"})

	for _, tech := range []struct {
		name       string
		partitions uint32
	}{{"sdram", 0}, {"pcm", 4}} {
		for _, p := range pairs {
			t.Run(fmt.Sprintf("%s/%dch/%s", tech.name, p.channels, p.a), func(t *testing.T) {
				t.Parallel() // the traces are shared read-only
				decA, sysA, cpA := sameFunctionSystem(t, tech.name, tech.partitions, p.channels, p.a)
				decB, sysB, cpB := sameFunctionSystem(t, tech.name, tech.partitions, p.channels, p.b)
				if !addrmap.SameFunction(decA, decB) {
					t.Fatalf("%s and %s: not one address function", p.a, p.b)
				}
				for i, tr := range traces {
					ra, err := sysA.Run(tr)
					if err != nil {
						t.Fatalf("%s under %s: %v", names[i], p.a, err)
					}
					rb, err := sysB.Run(tr)
					if err != nil {
						t.Fatalf("%s under %s: %v", names[i], p.b, err)
					}
					if !reflect.DeepEqual(ra, rb) {
						t.Fatalf("%s: %s and %s differ\n%s: %d cycles %+v\n%s: %d cycles %+v",
							names[i], p.a, p.b, p.a, ra.Cycles, ra.Stats, p.b, rb.Cycles, rb.Stats)
					}
					if err := sysA.Restore(cpA); err != nil {
						t.Fatal(err)
					}
					if err := sysB.Restore(cpB); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// sameFunctionSystem builds a 16-bank PVA system on a back end under
// the decoder a spec names, and returns the decoder, the system and its
// cold checkpoint.
func sameFunctionSystem(t *testing.T, tech string, partitions, channels uint32, spec string) (addrmap.Decoder, *pvaunit.System, memsys.Checkpoint) {
	t.Helper()
	cfg := pvaunit.PaperConfig()
	cfg.Channels = channels
	if err := pvaunit.ApplyTech(&cfg, tech, 0, partitions); err != nil {
		t.Fatal(err)
	}
	d, err := addrmap.Parse(spec, channels, cfg.Banks, cfg.LineWords)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Decoder = d
	sys, err := pvaunit.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, sys, sys.Snapshot()
}

// fullPassClimb is the climb greedy replaced, kept as its reference:
// toggle every (bank bit, bank-word bit) pair in turn, keep strict
// improvements, and repeat whole passes until one accepts nothing.
func fullPassClimb(s *searcher, r rung, start []uint32) climb {
	cur := append([]uint32(nil), start...)
	best, err := r.load(cur)
	if err != nil {
		return climb{err: err}
	}
	evals := 1
	for improved := true; improved; {
		improved = false
		for j := range cur {
			for _, b := range s.varyBit {
				cur[j] ^= 1 << b
				c, err := r.neighbour(cur, j, b)
				if err != nil {
					return climb{err: err}
				}
				evals++
				if c < best {
					best, improved = c, true
					r.accept(j, b)
				} else {
					cur[j] ^= 1 << b
				}
			}
		}
	}
	return climb{masks: cur, cost: best, evals: evals}
}

// firstPairRung is a fake surrogate in which only the first (mask, bit)
// pair's toggle improves the start: a set costs 1 with bit varyBit[0] of
// mask 0 set and 2 otherwise.
type firstPairRung struct{ bit uint }

func (r firstPairRung) load(masks []uint32) (uint64, error) {
	return 2 - uint64(masks[0]>>r.bit&1), nil
}

func (r firstPairRung) neighbour(masks []uint32, _ int, _ uint) (uint64, error) {
	return r.load(masks)
}

func (firstPairRung) accept(int, uint) {}

// TestGreedyQuietLapSkipsAcceptedPair: after the first pair's toggle is
// accepted, the quiet lap scores each of the other pairs once and not
// the accepted pair, whose toggle back would restore the worse start:
// the start, then 1 + (pairs-1) neighbours.
func TestGreedyQuietLapSkipsAcceptedPair(t *testing.T) {
	s, err := newSearcher(testWorkload(t, "swap"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := len(s.starts[0]) * len(s.varyBit)
	if pairs < 2 {
		t.Fatalf("%d (mask, bit) pairs; the test needs at least 2", pairs)
	}
	got := s.greedy(firstPairRung{s.varyBit[0]}, s.starts[0])
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.cost != 1 || got.masks[0] != 1<<s.varyBit[0] {
		t.Fatalf("climb ended at %#x cost %d, want mask 0 = %#x at cost 1", got.masks, got.cost, 1<<s.varyBit[0])
	}
	if want := 1 + pairs; got.evals != want {
		t.Errorf("climb scored %d candidates over %d pairs, want %d", got.evals, pairs, want)
	}
}

// TestGreedyMatchesFullPassClimb: stopping after one quiet lap reaches
// the same optimum at the same cost as repeating whole passes, with no
// more evaluations, on the surrogate.
func TestGreedyMatchesFullPassClimb(t *testing.T) {
	restarts := 20
	if testing.Short() {
		restarts = 4
	}
	for _, name := range []string{"saxpy", "swap", "gather"} {
		s, err := newSearcher(testWorkload(t, name), Options{Seed: 0x9e11, Restarts: restarts})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range s.starts { // both landmarks, then the seeded starts
			got, want := s.greedy(s.scorer, st), fullPassClimb(s, s.scorer, st)
			if got.err != nil || want.err != nil {
				t.Fatal(got.err, want.err)
			}
			if !reflect.DeepEqual(got.masks, want.masks) || got.cost != want.cost {
				t.Fatalf("%s from %#x: cyclic climb %#x cost %d, full passes %#x cost %d",
					name, st, got.masks, got.cost, want.masks, want.cost)
			}
			if got.evals > want.evals {
				t.Fatalf("%s from %#x: cyclic climb scored %d, full passes %d", name, st, got.evals, want.evals)
			}
		}
	}
}
