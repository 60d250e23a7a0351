// Package autotune searches the XOR-hash address-mapping space for the
// decoder that minimizes a workload's bank conflicts and total cycles,
// and ships the winner as the canonical "tuned:" spec of an
// addrmap.Map, usable everywhere a decoder is today (Config.AddrMap, both
// CLIs, the sweep harness). See DESIGN.md §14 for the search-space and
// determinism arguments.
//
// The search is a two-rung evaluation ladder. The bottom rung is the
// decode-only surrogate (surrogate.go): greedy per-bit refinement with
// seeded random restarts walks the mask space on surrogate cost alone,
// each neighbour scored from per-command summaries kept under the
// climb's current masks, walking elements only where a command
// straddles the toggled bit. The climbs are independent, so they fan
// out over at most GOMAXPROCS goroutines, one scorer per goroutine. The
// top rung is the real cycle-accurate simulator: only the surrogate's
// best few locally optimal candidates (Options.Survivors) are
// promoted, each evaluated by running the full workload on a fresh
// system, every trace from its cold post-construction checkpoint,
// fanned out the same way. The fixed decoders' baselines ride in
// that batch, each simulated only if no promoted candidate computes its
// address function already. The winner is the survivor with the
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
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"pva/internal/addrmap"
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
	// and the full simulations serially inline; anything else fans each
	// rung out over min(GOMAXPROCS, tasks) goroutines that take the
	// climbs (each goroutine reusing one scorer across its climbs) or
	// the full simulations in turn. The Result is bit-identical at any
	// value.
	Workers int
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
	// the same workload, keyed "word", "line", "xor". A fixed decoder
	// with the same address function as a survivor (addrmap.SameFunction)
	// reports that survivor's total instead of simulating again.
	Baselines map[string]uint64 `json:"baselines"`
	// SurrogateEvals and FullEvals count the two rungs of the ladder:
	// FullEvals is one simulation per survivor and per fixed decoder
	// matching none.
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
	lm      uint       // log2 banks
	varyBit []uint     // bank-word bits the search may toggle, ascending
	starts  [][]uint32 // the climbs' starting mask sets
	surEval int
	fullMu  sync.Mutex
	full    int
}

// Search runs the autotuner over a workload and returns the winning
// decoder with its evidence. Deterministic for a fixed Options.Seed.
func Search(w Workload, o Options) (*Result, error) {
	s, err := newSearcher(w, o)
	if err != nil {
		return nil, err
	}
	o = s.o

	// Rung one: greedy per-bit refinement of every start, each climb in
	// its own slot, then deduplicated in start order. built keeps each
	// spec's map for the full rung.
	var locals []Candidate
	built := map[string]*addrmap.Map{}
	for _, c := range s.climbAll(s.starts) {
		if c.err != nil {
			return nil, c.err
		}
		s.surEval += c.evals
		d := s.tuned(c.masks)
		spec := d.String()
		if built[spec] != nil {
			continue
		}
		built[spec] = d
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
		d := s.tuned(lmk)
		spec := d.String()
		if slices.ContainsFunc(locals, func(c Candidate) bool { return c.Spec == spec }) {
			continue
		}
		built[spec] = d
		s.surEval++
		sur, _ := s.scorer.load(lmk) // the surrogate never fails
		locals = append(locals, Candidate{Masks: lmk, Spec: spec, Surrogate: sur})
	}
	decs := make([]addrmap.Decoder, len(locals))
	for i, c := range locals {
		decs[i] = built[c.Spec]
	}

	// Baselines: the fixed decoders on the identical workload. One that
	// computes the same address function as a decoder already in the
	// batch takes that decoder's total, since equal functions simulate
	// identically (TestSameFunctionSameResult): the landmarks cover word
	// and xor, and word covers line at one channel. The others join the
	// batch.
	baseNames := []string{"word", "line", "xor"}
	baseAt := make([]int, len(baseNames))
	for i, n := range baseNames {
		d, err := addrmap.Parse(n, o.Channels, o.Banks, o.LineWords)
		if err != nil {
			return nil, err
		}
		baseAt[i] = slices.IndexFunc(decs, func(c addrmap.Decoder) bool { return addrmap.SameFunction(c, d) })
		if baseAt[i] < 0 {
			baseAt[i] = len(decs)
			decs = append(decs, d)
		}
	}
	cycles, err := s.evalAll(decs)
	if err != nil {
		return nil, err
	}
	baselines := make(map[string]uint64, len(baseNames))
	for i, n := range baseNames {
		baselines[n] = cycles[baseAt[i]]
	}
	for i := range locals {
		locals[i].Cycles = cycles[i]
	}
	sort.Slice(locals, func(i, j int) bool {
		if locals[i].Cycles != locals[j].Cycles {
			return locals[i].Cycles < locals[j].Cycles
		}
		return locals[i].Spec < locals[j].Spec
	})

	return &Result{
		Workload:       w.Name,
		Best:           locals[0],
		Survivors:      locals,
		Baselines:      baselines,
		SurrogateEvals: s.surEval,
		FullEvals:      s.full,
	}, nil
}

// newSearcher checks the options and the workload, fills in the
// defaults, captures the workload's addresses for the surrogate, and
// picks the bank-word bits the climbs may toggle and the mask sets they
// start from.
func newSearcher(w Workload, o Options) (*searcher, error) {
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

	// The toggleable bits, optionally capped by MaskBits.
	vary := varyingBits(captured, uint(bits.TrailingZeros32(o.Channels))+s.lm)
	if o.MaskBits > 0 && o.MaskBits < 32 {
		vary &= 1<<o.MaskBits - 1
	}
	for v := vary; v != 0; v &= v - 1 {
		s.varyBit = append(s.varyBit, uint(bits.TrailingZeros32(v)))
	}

	// Starting population: the two landmarks plus seeded random masks.
	s.starts = [][]uint32{
		make([]uint32, s.lm), // word interleave
		addrmap.XORFoldMasks(o.Channels, o.Banks),
	}
	seed := o.Seed
	for r := 0; r < o.Restarts; r++ {
		m := make([]uint32, s.lm)
		for j := range m {
			m[j] = uint32(splitmix64(&seed)) & vary
		}
		s.starts = append(s.starts, m)
	}
	return s, nil
}

// tuned returns the tuned decoder for masks in the searched shape.
func (s *searcher) tuned(masks []uint32) *addrmap.Map {
	return addrmap.MustTuned(s.o.Channels, s.o.Banks, masks)
}

// rung scores one climb's candidates: the surrogate (*scorer), or a
// test's fake.
type rung interface {
	// load makes masks the climb's current set and scores it.
	load(masks []uint32) (uint64, error)
	// neighbour scores the current set with bank-word bit b toggled in
	// mask j; masks already carries the toggle.
	neighbour(masks []uint32, j int, b uint) (uint64, error)
	// accept makes that neighbour the current set.
	accept(j int, b uint)
}

// climb is one start's greedy refinement: the local optimum, its cost,
// and how many candidates the climb scored.
type climb struct {
	masks []uint32
	cost  uint64
	evals int
	err   error
}

// varyingBits is the mask of bank-word bits (the address bits above
// shift) that vary across the captured workload. Only these can change
// a conflict: a constant bit contributes a constant parity, a pure
// relabeling.
func varyingBits(captured []kernels.AddressTrace, shift uint) uint32 {
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
	return vary
}

// greedy hill-climbs one mask set to a local optimum: it toggles the
// (bank bit, bank-word bit) pairs in a fixed cyclic order (masks in
// turn, bits ascending within each), keeps strict improvements, and
// stops after one quiet lap, once every pair has been scored since the
// last accepted toggle and none improved. The accepted pair counts as
// scored: toggling it back would restore the strictly worse set the
// climb just left. Repeating whole passes until one accepts nothing
// visits the pairs in the same order and accepts the same toggles; it
// only re-scores, in the same state, pairs the quiet lap already turned
// down.
func (s *searcher) greedy(r rung, start []uint32) climb {
	cur := append([]uint32(nil), start...)
	best, err := r.load(cur)
	if err != nil {
		return climb{err: err}
	}
	evals := 1
	nb := len(s.varyBit)
	pairs := len(cur) * nb
	for p, quiet := 0, 0; quiet < pairs; p = (p + 1) % pairs {
		j, b := p/nb, s.varyBit[p%nb]
		cur[j] ^= 1 << b
		c, err := r.neighbour(cur, j, b)
		if err != nil {
			return climb{err: err}
		}
		evals++
		if c < best {
			best, quiet = c, 1
			r.accept(j, b)
		} else {
			cur[j] ^= 1 << b
			quiet++
		}
	}
	return climb{masks: cur, cost: best, evals: evals}
}

// climbAll refines every start into its own slot, on the goroutines
// workers allows, which take starts in turn, each climbing on its own
// scorer. Scorers are forked before any climb starts, one per
// goroutine, and reused across that goroutine's climbs: load relabels
// every element, so no climb sees another's state.
func (s *searcher) climbAll(starts [][]uint32) []climb {
	out := make([]climb, len(starts))
	n := s.workers(len(starts))
	scorers := make([]*scorer, n)
	for i := range scorers {
		if i == 0 {
			scorers[i] = s.scorer
		} else {
			scorers[i] = s.scorer.fork()
		}
	}
	fanOut(n, len(starts), func(w, i int) { out[i] = s.greedy(scorers[w], starts[i]) })
	return out
}

// workers returns how many goroutines share a rung's tasks: 1 when
// Options.Workers is 1, else min(GOMAXPROCS, tasks).
func (s *searcher) workers(tasks int) int {
	if s.o.Workers == 1 {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), tasks)
}

// fanOut calls task(w, i) once for every i < n on the given number of
// goroutines, which take the indices in turn; w numbers the calling
// goroutine, from 0. Asked for one goroutine or none, it runs the tasks
// inline, in index order. It returns once every call has returned.
func fanOut(goroutines, n int, task func(w, i int)) {
	if goroutines <= 1 {
		for i := range n {
			task(0, i)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for w := range goroutines {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				task(w, i)
			}
		}()
	}
	wg.Wait()
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

// evalAll measures several decoders on the goroutines workers allows.
// Each evaluation builds its own system, and results land in indexed
// slots: goroutine scheduling cannot reorder them.
func (s *searcher) evalAll(decs []addrmap.Decoder) ([]uint64, error) {
	out := make([]uint64, len(decs))
	errs := make([]error, len(decs))
	fanOut(s.workers(len(decs)), len(decs), func(_, i int) { out[i], errs[i] = s.fullCycles(decs[i]) })
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
