// Package autotune searches the XOR-hash address-mapping space for the
// decoder that minimizes a workload's bank conflicts and total cycles,
// and ships the winner as a canonical addrmap.Tuned spec usable
// everywhere a decoder is today (Config.AddrMap, both CLIs, the sweep
// harness). See DESIGN.md §14 for the search-space and determinism
// arguments.
//
// The search is a two-rung evaluation ladder. The bottom rung is the
// decode-only surrogate (surrogate.go): greedy per-bit refinement with
// seeded random restarts walks the mask space on surrogate cost alone,
// each neighbour scored from per-command summaries kept under the
// climb's current masks, walking elements only where a command
// straddles the toggled bit. The climbs are independent, so they fan
// out over the process-global engine worker pool, one scorer per
// worker. The top rung is the real cycle-accurate simulator: only the
// surrogate's best few locally optimal candidates (Options.Survivors)
// are promoted, each evaluated by running the full workload on a fresh
// system, every trace from its cold post-construction checkpoint,
// fanned out over the same pool. The winner is the survivor with the
// fewest measured cycles; because zero masks reproduce the paper's word
// interleave and the XOR-fold masks reproduce the classic bank hash,
// both landmarks are always in the starting population and the tuned
// result can never search worse than them under the surrogate's
// ranking.
//
// Everything is deterministic for a fixed Options.Seed: restarts come
// from a splitmix64 stream, greedy scans bits in ascending order, each
// climb and each full evaluation lands in its own indexed slot, and
// candidates are deduplicated and ordered by (cost, spec) in start
// order, so scheduling order cannot leak into the result.
package autotune

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pva/internal/addrmap"
	"pva/internal/engine"
	"pva/internal/kernels"
	"pva/internal/memsys"
	"pva/internal/pvaunit"
)

// Workload is what the tuner optimizes for: a set of recorded traces
// measured together (their cycle counts sum). Build one from kernels
// via KernelWorkload or hand it explicit traces.
type Workload struct {
	Name   string
	Traces []memsys.Trace
}

// KernelWorkload builds the workload "kernel at each stride" with the
// given alignment and vector length (0: the paper's 1024).
func KernelWorkload(k kernels.Kernel, strides []uint32, alignment int, elements uint32) Workload {
	w := Workload{Name: k.Name}
	for _, s := range strides {
		p := kernels.PaperParams(s, alignment)
		if elements != 0 {
			p.Elements = elements
		}
		w.Traces = append(w.Traces, k.Build(p))
	}
	return w
}

// Options tunes the search. The zero value searches the paper's
// single-channel 16-bank shape with a small deterministic budget.
type Options struct {
	// Channels/Banks/LineWords fix the decoder shape searched (0: the
	// paper's 1, 16, 32).
	Channels  uint32
	Banks     uint32
	LineWords uint32
	// Seed drives the random restarts; equal seeds give bit-identical
	// results, including across worker counts.
	Seed uint64
	// Restarts is the number of random starting mask sets refined in
	// addition to the word and XOR-fold landmarks (0: 6).
	Restarts int
	// Survivors is how many locally optimal candidates are promoted to
	// full cycle-accurate evaluation (0: 4).
	Survivors int
	// Workers selects where both rungs run: 1 runs the greedy climbs
	// and the full simulations serially inline; anything else fans the
	// climbs out over the shared engine worker pool (at most
	// min(GOMAXPROCS, starts) tasks, each reusing one scorer across its
	// climbs) and the full simulations one task each. The Result is
	// bit-identical at any value.
	Workers int
	// DisableSurrogate makes every evaluation — greedy refinement
	// included — a full cycle-accurate simulation. It exists to measure
	// what the surrogate rung saves (see BenchmarkAutotuneSearch); on
	// real budgets it is orders of magnitude slower.
	DisableSurrogate bool
	// MaskBits caps the bank-word bits the search may hash (0: every
	// bit that varies across the workload).
	MaskBits uint
}

func (o Options) withDefaults() Options {
	if o.Channels == 0 {
		o.Channels = 1
	}
	if o.Banks == 0 {
		o.Banks = 16
	}
	if o.LineWords == 0 {
		o.LineWords = 32
	}
	if o.Restarts == 0 {
		o.Restarts = 6
	}
	if o.Survivors == 0 {
		o.Survivors = 4
	}
	return o
}

// Candidate is one evaluated mask set.
type Candidate struct {
	Masks     []uint32 `json:"masks"`
	Spec      string   `json:"spec"`
	Surrogate uint64   `json:"surrogate"`
	// Cycles is the full-simulation total over the workload; 0 when the
	// candidate was pruned by the surrogate alone.
	Cycles uint64 `json:"cycles,omitempty"`
}

// Result reports a search.
type Result struct {
	Workload string `json:"workload"`
	// Best is the winning candidate; Best.Spec plugs directly into
	// Config.AddrMap, -addrmap, and SweepOptions.AddrMap.
	Best Candidate `json:"best"`
	// Survivors are the fully evaluated candidates, best first.
	Survivors []Candidate `json:"survivors"`
	// Baselines are the full-simulation totals of the fixed decoders on
	// the same workload, keyed "word", "line", "xor".
	Baselines map[string]uint64 `json:"baselines"`
	// SurrogateEvals and FullEvals count the two rungs of the ladder.
	SurrogateEvals int `json:"surrogate_evals"`
	FullEvals      int `json:"full_evals"`
}

// BestFixed returns the lowest baseline total and its decoder name
// (ties break alphabetically).
func (r *Result) BestFixed() (string, uint64) {
	bestName, best := "", ^uint64(0)
	for _, name := range []string{"line", "word", "xor"} {
		if c, ok := r.Baselines[name]; ok && c < best {
			bestName, best = name, c
		}
	}
	return bestName, best
}

// searcher carries one Search invocation's state.
type searcher struct {
	w       Workload
	o       Options
	scorer  *scorer
	lm      uint   // log2 banks
	varyBit []uint // bank-word bits the search may toggle, ascending
	surEval int
	fullMu  sync.Mutex
	full    int
}

// Search runs the autotuner over a workload and returns the winning
// decoder with its evidence. Deterministic for a fixed Options.Seed.
func Search(w Workload, o Options) (*Result, error) {
	if o.Restarts < 0 {
		return nil, fmt.Errorf("autotune: Restarts %d is negative", o.Restarts)
	}
	if o.Survivors < 0 {
		return nil, fmt.Errorf("autotune: Survivors %d is negative", o.Survivors)
	}
	o = o.withDefaults()
	if len(w.Traces) == 0 {
		return nil, fmt.Errorf("autotune: workload %q has no traces", w.Name)
	}
	// Validate the shape once; every later MustTuned shares it.
	if _, err := addrmap.NewTuned(o.Channels, o.Banks, nil); err != nil {
		return nil, err
	}
	if units := uint64(o.Channels) * uint64(o.Banks); units > maxUnits {
		return nil, fmt.Errorf("autotune: Channels*Banks = %d exceeds the surrogate's %d units", units, maxUnits)
	}

	captured := make([]kernels.AddressTrace, len(w.Traces))
	for i, tr := range w.Traces {
		captured[i] = kernels.CaptureAddresses(tr)
	}
	sc, err := newScorer(captured, pvaunit.PaperConfig().SGeom, o.Channels, o.Banks)
	if err != nil {
		return nil, err
	}
	s := &searcher{
		w:      w,
		o:      o,
		scorer: sc,
		lm:     uint(bits.TrailingZeros32(o.Banks)),
	}

	// The toggleable bits: bank-word bits that vary across the workload
	// (a constant bit contributes a constant parity — pure relabeling,
	// never a conflict change), optionally capped by MaskBits.
	shift := uint(bits.TrailingZeros32(o.Channels)) + s.lm
	var vary, bw0 uint32
	first := true
	for _, tr := range captured {
		for _, cmd := range tr.Cmds {
			for _, a := range cmd {
				bw := a >> shift
				if first {
					bw0, first = bw, false
				}
				vary |= bw ^ bw0
			}
		}
	}
	if o.MaskBits > 0 && o.MaskBits < 32 {
		vary &= 1<<o.MaskBits - 1
	}
	for v := vary; v != 0; v &= v - 1 {
		s.varyBit = append(s.varyBit, uint(bits.TrailingZeros32(v)))
	}

	// Starting population: the two landmarks plus seeded random masks.
	starts := [][]uint32{
		make([]uint32, s.lm), // word interleave
		addrmap.XORFoldMasks(o.Channels, o.Banks),
	}
	seed := o.Seed
	for r := 0; r < o.Restarts; r++ {
		m := make([]uint32, s.lm)
		for j := range m {
			m[j] = uint32(splitmix64(&seed)) & vary
		}
		starts = append(starts, m)
	}

	// Rung one: greedy per-bit refinement of every start, each climb in
	// its own slot, then deduplicated in start order.
	var locals []Candidate
	seen := map[string]bool{}
	for _, c := range s.climbAll(starts) {
		if c.err != nil {
			return nil, c.err
		}
		if !o.DisableSurrogate {
			s.surEval += c.evals
		}
		spec := s.tuned(c.masks).String()
		if seen[spec] {
			continue
		}
		seen[spec] = true
		locals = append(locals, Candidate{Masks: c.masks, Spec: spec, Surrogate: c.cost})
	}
	sort.Slice(locals, func(i, j int) bool {
		if locals[i].Surrogate != locals[j].Surrogate {
			return locals[i].Surrogate < locals[j].Surrogate
		}
		return locals[i].Spec < locals[j].Spec
	})

	// Rung two: promote the survivors to the real simulator. The
	// unrefined landmarks always ride along — they reproduce the word and
	// xor decoders exactly, so the measured winner can never be worse
	// than either fixed decoder, whatever the surrogate thought.
	if len(locals) > o.Survivors {
		locals = locals[:o.Survivors]
	}
	for _, lmk := range [][]uint32{make([]uint32, s.lm), addrmap.XORFoldMasks(o.Channels, o.Banks)} {
		spec := s.tuned(lmk).String()
		dup := false
		for _, c := range locals {
			if c.Spec == spec {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		c := Candidate{Masks: lmk, Spec: spec}
		if !o.DisableSurrogate {
			s.surEval++
			c.Surrogate, _ = s.scorer.load(lmk) // the surrogate never fails
		}
		locals = append(locals, c)
	}
	decs := make([]addrmap.Decoder, len(locals))
	for i, c := range locals {
		decs[i] = s.tuned(c.Masks)
	}
	cycles, err := s.evalAll(decs)
	if err != nil {
		return nil, err
	}
	for i := range locals {
		locals[i].Cycles = cycles[i]
		if o.DisableSurrogate {
			locals[i].Surrogate = 0 // never surrogate-scored
		}
	}
	sort.Slice(locals, func(i, j int) bool {
		if locals[i].Cycles != locals[j].Cycles {
			return locals[i].Cycles < locals[j].Cycles
		}
		return locals[i].Spec < locals[j].Spec
	})

	// Baselines: the fixed decoders on the identical workload.
	baseNames := []string{"word", "line", "xor"}
	baseDecs := make([]addrmap.Decoder, len(baseNames))
	for i, n := range baseNames {
		d, err := addrmap.Parse(n, o.Channels, o.Banks, o.LineWords)
		if err != nil {
			return nil, err
		}
		baseDecs[i] = d
	}
	baseCycles, err := s.evalAll(baseDecs)
	if err != nil {
		return nil, err
	}
	baselines := make(map[string]uint64, len(baseNames))
	for i, n := range baseNames {
		baselines[n] = baseCycles[i]
	}

	return &Result{
		Workload:       w.Name,
		Best:           locals[0],
		Survivors:      locals,
		Baselines:      baselines,
		SurrogateEvals: s.surEval,
		FullEvals:      s.full,
	}, nil
}

// tuned returns the tuned decoder for masks in the searched shape.
func (s *searcher) tuned(masks []uint32) *addrmap.Tuned {
	return addrmap.MustTuned(s.o.Channels, s.o.Banks, masks)
}

// rung scores one climb's candidates: the surrogate (*scorer), or full
// simulation (fullRung) under Options.DisableSurrogate.
type rung interface {
	// load makes masks the climb's current set and scores it.
	load(masks []uint32) (uint64, error)
	// neighbour scores the current set with bank-word bit b toggled in
	// mask j; masks already carries the toggle.
	neighbour(masks []uint32, j int, b uint) (uint64, error)
	// accept makes that neighbour the current set.
	accept(j int, b uint)
}

// fullRung scores every candidate by full simulation and keeps no
// state between calls.
type fullRung struct{ s *searcher }

func (r fullRung) load(masks []uint32) (uint64, error) { return r.s.fullCycles(r.s.tuned(masks)) }

func (r fullRung) neighbour(masks []uint32, _ int, _ uint) (uint64, error) { return r.load(masks) }

func (fullRung) accept(int, uint) {}

// climb is one start's greedy refinement: the local optimum, its cost,
// and how many candidates the climb scored.
type climb struct {
	masks []uint32
	cost  uint64
	evals int
	err   error
}

// greedy hill-climbs one mask set to a local optimum: toggle every
// (bank bit, bank-word bit) pair, keep strict improvements, repeat
// until a full pass finds none. Bits scan in ascending order so the
// walk is deterministic.
func (s *searcher) greedy(r rung, start []uint32) climb {
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

// climbAll refines every start into its own slot. Unless Workers is 1,
// min(GOMAXPROCS, starts) tasks on the engine pool take starts in turn,
// each climbing on its own rung; a single task runs inline. Surrogate
// rungs are forked before any task starts, one per task, and reused
// across that task's climbs: load relabels every element, so no climb
// sees another's state.
func (s *searcher) climbAll(starts [][]uint32) []climb {
	out := make([]climb, len(starts))
	n := 1
	if s.o.Workers != 1 {
		n = min(runtime.GOMAXPROCS(0), len(starts))
	}
	rungs := make([]rung, n)
	for i := range rungs {
		switch {
		case s.o.DisableSurrogate:
			rungs[i] = fullRung{s}
		case i == 0:
			rungs[i] = s.scorer
		default:
			rungs[i] = s.scorer.fork()
		}
	}
	if n == 1 {
		for i, st := range starts {
			out[i] = s.greedy(rungs[0], st)
		}
		return out
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(n)
	for _, r := range rungs {
		engine.Go(func() {
			for i := int(next.Add(1)) - 1; i < len(starts); i = int(next.Add(1)) - 1 {
				out[i] = s.greedy(r, starts[i])
			}
		}, &wg)
	}
	wg.Wait()
	return out
}

// fullCycles measures the workload's total cycles under a decoder on
// a fresh cycle-accurate PVA SDRAM system. Every trace runs from the
// same cold post-construction checkpoint, mirroring the sweep harness's
// warm-start discipline.
func (s *searcher) fullCycles(dec addrmap.Decoder) (uint64, error) {
	cfg := pvaunit.PaperConfig()
	cfg.Banks = s.o.Banks
	cfg.LineWords = s.o.LineWords
	cfg.Channels = s.o.Channels
	cfg.Decoder = dec
	sys, err := pvaunit.New(cfg)
	if err != nil {
		return 0, err
	}
	cp := sys.Snapshot()
	var total uint64
	for _, tr := range s.w.Traces {
		res, err := sys.Run(tr)
		if err != nil {
			return 0, fmt.Errorf("autotune: %s under %s: %w", s.w.Name, addrmap.Spec(dec), err)
		}
		total += res.Cycles
		if err := sys.Restore(cp); err != nil {
			return 0, err
		}
	}
	s.fullMu.Lock()
	s.full++
	s.fullMu.Unlock()
	return total, nil
}

// evalAll measures several decoders, serially for Workers == 1,
// otherwise fanned out over the shared engine worker pool. Each
// evaluation builds its own system and runs it on the serial engine, so
// pool workers never submit pool work — the pool's no-deadlock rule.
// Results land in indexed slots: worker scheduling cannot reorder them.
func (s *searcher) evalAll(decs []addrmap.Decoder) ([]uint64, error) {
	out := make([]uint64, len(decs))
	errs := make([]error, len(decs))
	if s.o.Workers == 1 {
		for i, d := range decs {
			out[i], errs[i] = s.fullCycles(d)
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(len(decs))
		for i := range decs {
			i := i
			engine.Go(func() { out[i], errs[i] = s.fullCycles(decs[i]) }, &wg)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// splitmix64 is the search's deterministic pseudo-random stream.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
