package autotune

import (
	"reflect"
	"strings"
	"testing"

	"pva/internal/kernels"
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
// rerunning, pooling the climbs and the full simulations, running the
// full-simulation-only climbs pooled, and handing the pool more starts
// than it has workers must all reproduce the serial search bit for bit.
// The CI race job runs it at GOMAXPROCS 1, 2 and 8.
func TestAutotuneSearchDeterministic(t *testing.T) {
	w := testWorkload(t, "copy")
	for _, opts := range []Options{
		{Seed: 42, Restarts: 3},
		{Seed: 42, Restarts: 9}, // 11 starts: more than the climbing tasks below GOMAXPROCS 11
		{Seed: 5, Restarts: 2, MaskBits: 3, DisableSurrogate: true},
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

		pooled := opts // Workers 0: fan out over the engine pool
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

func TestAutotuneLadderCounts(t *testing.T) {
	w := testWorkload(t, "saxpy")
	res, err := Search(w, Options{Seed: 3, Restarts: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SurrogateEvals == 0 {
		t.Fatal("surrogate rung never ran")
	}
	// Full simulations: one per survivor plus the three baselines.
	if want := len(res.Survivors) + 3; res.FullEvals != want {
		t.Fatalf("FullEvals = %d, want %d (survivors %d + 3 baselines)", res.FullEvals, want, len(res.Survivors))
	}
	if res.SurrogateEvals < res.FullEvals {
		t.Fatalf("ladder inverted: %d surrogate vs %d full evaluations", res.SurrogateEvals, res.FullEvals)
	}
	for i := 1; i < len(res.Survivors); i++ {
		if res.Survivors[i-1].Cycles > res.Survivors[i].Cycles {
			t.Fatalf("survivors not sorted by cycles: %+v", res.Survivors)
		}
	}
}

func TestAutotuneDisableSurrogate(t *testing.T) {
	w := testWorkload(t, "copy")
	res, err := Search(w, Options{Seed: 5, Restarts: 1, Workers: 1, MaskBits: 3, DisableSurrogate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SurrogateEvals != 0 {
		t.Fatalf("surrogate ran %d times with DisableSurrogate", res.SurrogateEvals)
	}
	if res.FullEvals <= len(res.Survivors)+3 {
		t.Fatalf("full-sim-only search did too few simulations: %d", res.FullEvals)
	}
	if _, best := res.BestFixed(); res.Best.Cycles > best {
		t.Fatalf("full-sim search lost to fixed baseline: %d vs %d", res.Best.Cycles, best)
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
