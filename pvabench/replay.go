package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pva"
	"pva/internal/addrmap"
	"pva/internal/baseline"
	"pva/internal/ckptio"
	"pva/internal/core"
	"pva/internal/harness"
	"pva/internal/kernels"
	"pva/internal/memsys"
	"pva/internal/pvaunit"
)

// layerRows are the traced run's per-layer metrics in BENCHMARK.json
// order. Timed rows report the median over the run's iterations; the
// others are simulated counts, exact for the input of the run's first
// iteration. A row stays 0 on a workload whose pass does no work in
// that layer.
var layerRows = []struct {
	name, unit string
	timed      bool
}{
	{"kernels.build_ms", "ms", true},
	{"kernels.cmds", "count", false},
	{"core.firsthit_ns", "ns", true},
	{"core.firsthit_calls", "count", false},
	{"addrmap.decode_ns", "ns", true},
	{"addrmap.decodes", "count", false},
	{"pvaunit.run_ms", "ms", true},
	{"pvaunit.ns_per_element", "ns", true},
	{"pvaunit.ns_per_sim_cycle", "ns", true},
	{"pvaunit.failed_run_ms", "ms", true},
	{"pvaunit.admit_wait_cycles_p50", "cycles", false},
	{"pvaunit.admit_wait_cycles_p99", "cycles", false},
	{"pvaunit.service_cycles_p50", "cycles", false},
	{"pvaunit.service_cycles_p99", "cycles", false},
	{"bus.busy_frac", "ratio", false},
	{"bus.turnaround_cycles", "cycles", false},
	{"bus.index_cycles", "cycles", false},
	{"bankctl.claim_imbalance", "ratio", false},
	{"bankctl.bank_load_imbalance", "ratio", false},
	{"sdram.row_hit_ratio", "ratio", false},
	{"sdram.activates", "count", false},
	{"dramtech.row_conflicts", "count", false},
	{"dramtech.partition_stalls", "cycles", false},
	{"dramtech.read_latency_avg", "cycles", false},
	{"dramtech.write_latency_avg", "cycles", false},
	{"baseline.run_ms", "ms", true},
	{"baseline.ns_per_element", "ns", true},
	{"memsys.reference_ms", "ms", true},
	{"memsys.restore_us", "us", true},
	{"harness.sweep_ms", "ms", true},
	{"harness.overhead_frac", "ratio", true},
	{"harness.failed_cells", "count", false},
	{"harness.golden_drift_cells", "count", false},
	{"autotune.search_ms", "ms", true},
	{"autotune.surrogate_evals", "count", false},
	{"autotune.full_evals", "count", false},
	{"autotune.promote_ratio", "ratio", false},
	{"autotune.full_sim_ms", "ms", true},
	{"ckptio.encode_mb_per_s", "MB/s", true},
	{"ckptio.decode_mb_per_s", "MB/s", true},
	{"trace.overhead_frac", "ratio", true},
}

// rows maps row names to one iteration's values.
type rows map[string]float64

// replayer carries a traced run: the span recorder and every
// iteration's rows.
type replayer struct {
	rec   *recorder
	img   *memsys.Image // paper-grid memory image for the ckptio rows
	iters []rows
	t     tally
}

// traced runs the per-layer replay. After the same warm-up pass as the
// end-to-end run, each iteration runs the workload's pass call, replays
// the pass's inputs through every layer's public calls with tracing off
// and on (alternating which goes first), and probes the layers the pass
// reaches only from inside other layers. Spans are written at the end.
func traced(cfg config, w workload, out io.Writer) (result, error) {
	v, err := w.pass(0)
	if err != nil {
		return result{}, err
	}
	rp := &replayer{rec: newRecorder()}
	rp.t.wrong = append(rp.t.wrong, w.check(0, v).wrong...)
	if rp.img, err = paperImage(uint32(cfg.elements)); err != nil {
		return result{}, err
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < dur; i++ {
		if err := w.replay(i, rp); err != nil {
			return result{}, err
		}
	}
	if len(rp.iters) == 0 {
		return result{}, fmt.Errorf("no traced iteration completed:\n%s", strings.Join(rp.t.wrong, "\n"))
	}

	metrics := map[string]metric{}
	for _, l := range layerRows {
		v := rp.iters[0][l.name]
		if l.timed {
			var xs []float64
			for _, it := range rp.iters {
				xs = append(xs, it[l.name])
			}
			v = median(xs)
		}
		metrics[l.name] = metric{v, l.unit}
	}

	path := cfg.spans
	if path == "" {
		path = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	}
	if err := rp.rec.write(path, cfg.workload, cfg.seed); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "# %s seed %d: %d traced iterations; %d spans in %s\n",
		cfg.workload, cfg.seed, len(rp.iters), len(rp.rec.spans), path)
	for _, s := range rp.t.wrong {
		fmt.Fprintln(out, "# WRONG:", s)
	}
	return result{Correct: len(rp.t.wrong) == 0, Attempted: rp.t.attempted, Failed: rp.t.failed, Metrics: metrics}, nil
}

// finish stores an iteration's rows after holding its simulated rows to
// those of any earlier iteration on the same input.
func (rp *replayer) finish(input int, r rows) {
	var exact []string
	for _, l := range layerRows {
		if !l.timed {
			exact = append(exact, fmt.Sprintf("%s=%v", l.name, r[l.name]))
		}
	}
	rp.t.same(fmt.Sprintf("simulated rows on input %d", input), strings.Join(exact, " "))
	rp.iters = append(rp.iters, r)
}

// both runs a replay untraced and traced, alternating the order by
// iteration. It returns the traced replay's result, the span index it
// started at, and the tracing overhead: the traced wall time over the
// untraced one, minus 1.
func both[T any](rp *replayer, i int, replay func() (T, error)) (T, int, float64, error) {
	var res T
	var mark int
	var wall [2]time.Duration // untraced, traced
	defer func() { rp.rec.on = true }()
	for k := 0; k < 2; k++ {
		on := k == i%2
		rp.rec.on = on
		if on {
			mark = rp.rec.mark()
		}
		t0 := time.Now()
		r, err := replay()
		if err != nil {
			return res, 0, 0, err
		}
		if on {
			res, wall[1] = r, time.Since(t0)
		} else {
			wall[0] = time.Since(t0)
		}
	}
	return res, mark, float64(wall[1])/float64(wall[0]) - 1, nil
}

// cellRun is one replayed cell.
type cellRun struct {
	name     string
	system   harness.SystemKind
	channels uint32
	tr       memsys.Trace
	cycles   uint64
	failed   bool
	stats    memsys.Stats
	load     float64 // busiest device's accesses over the mean (PVA-SDRAM)
}

type cellSpec struct {
	kernel kernels.Kernel
	stride uint32
	align  int
	system harness.SystemKind
}

// plan lists the sweep's cells in the harness's order: kernel, stride,
// alignment, system.
func (s *sweep) plan() ([]cellSpec, error) {
	ks := kernels.All()
	if s.kernels != nil {
		ks = nil
		for _, n := range s.kernels {
			k, err := kernels.ByName(n)
			if err != nil {
				return nil, err
			}
			ks = append(ks, k)
		}
	}
	var out []cellSpec
	for _, k := range ks {
		for _, st := range harness.PaperStrides() {
			for a := 0; a < kernels.Alignments; a++ {
				for _, sys := range harness.AllSystems() {
					out = append(out, cellSpec{k, st, a, sys})
				}
			}
		}
	}
	return out, nil
}

func (s *sweep) channels() uint32 {
	if s.runner.Channels == 0 {
		return 1
	}
	return s.runner.Channels
}

// newSystem builds one of the sweep's systems from the layers' public
// constructors, configured as the harness configures it.
func (s *sweep) newSystem(k harness.SystemKind) (memsys.Snapshotter, error) {
	r := s.runner
	cfg := pvaunit.PaperConfig()
	dec, err := addrmap.Parse(r.AddrMap, s.channels(), cfg.Banks, cfg.LineWords)
	if err != nil {
		return nil, err
	}
	switch k {
	case harness.PVASDRAM, harness.PVASRAM:
		if k == harness.PVASRAM {
			cfg = pvaunit.SRAMConfig()
		} else if err := pvaunit.ApplyTech(&cfg, r.Tech, r.Subarrays, r.Partitions); err != nil {
			return nil, err
		}
		cfg.Channels, cfg.Decoder, cfg.WatchdogCycles = s.channels(), dec, r.Watchdog
		sys, err := pvaunit.New(cfg)
		if err != nil {
			return nil, err
		}
		return sys, nil
	case harness.CacheLineSerial:
		return baseline.NewCacheLineSerialChannels(s.channels()), nil
	case harness.GatheringSerial:
		return baseline.NewGatheringSerialChannels(dec), nil
	}
	return nil, fmt.Errorf("unknown system %v", k)
}

func layerOf(k harness.SystemKind) string {
	if k == harness.PVASDRAM || k == harness.PVASRAM {
		return "pvaunit"
	}
	return "baseline"
}

// replayCells runs every cell serially through the layers' public calls,
// as the harness's warm-starting cell runner does: build the trace,
// rewind the kind's system to its post-construction checkpoint (or
// construct it), run, verify against the functional reference. A failed
// cell discards every warm system, as the harness does.
func (s *sweep) replayCells(rec *recorder) ([]cellRun, error) {
	plan, err := s.plan()
	if err != nil {
		return nil, err
	}
	warm := map[harness.SystemKind]memsys.Snapshotter{}
	base := map[harness.SystemKind]memsys.Checkpoint{}
	out := make([]cellRun, len(plan))
	for id, c := range plan {
		cr := &out[id]
		cr.name = cellName(c.kernel.Name, c.stride, c.align, c.system)
		cr.system, cr.channels = c.system, s.channels()
		cs := rec.begin("cell", id)
		b := rec.begin("kernels.build", id)
		p := kernels.PaperParams(c.stride, c.align)
		p.Elements = s.runner.Elements
		cr.tr = c.kernel.Build(p)
		rec.end(b)
		layer := layerOf(c.system)
		sys := warm[c.system]
		if sys != nil {
			r := rec.begin("memsys.restore", id)
			err = sys.Restore(base[c.system])
			rec.end(r)
		} else {
			n := rec.begin(layer+".new", id)
			if sys, err = s.newSystem(c.system); err == nil {
				warm[c.system], base[c.system] = sys, sys.Snapshot()
			}
			rec.end(n)
		}
		if err != nil {
			return nil, err
		}
		r := rec.begin(layer+".run", id)
		res, err := sys.Run(cr.tr)
		rec.end(r)
		if err == nil {
			v := rec.begin("memsys.reference", id)
			err = verify(sys, cr.tr, res)
			rec.end(v)
		} else {
			rec.rename(r, layer+".run.failed")
		}
		if err != nil {
			cr.failed = true
			warm = map[harness.SystemKind]memsys.Snapshotter{}
		} else {
			cr.cycles, cr.stats = res.Cycles, res.Stats
			if p, ok := sys.(*pvaunit.System); ok && c.system == harness.PVASDRAM {
				cr.load = loadImbalance(p)
			}
		}
		rec.end(cs)
	}
	return out, nil
}

func (s *sweep) replay(i int, rp *replayer) error {
	// The harness call the replay decomposes, on one worker so that the
	// layer times inside it add up to its wall time.
	sp := rp.rec.begin("harness.sweep", -1)
	t0 := time.Now()
	out, err := s.runner.ResumableSweep(s.kernels, nil, nil, 1, harness.JournalConfig{})
	sweepMS := ms(time.Since(t0))
	rp.rec.end(sp)
	if err != nil {
		return err
	}
	o := s.check(i, out)
	rp.t.add(s.input(i), o)

	cells, mark, overhead, err := both(rp, i, func() ([]cellRun, error) { return s.replayCells(rp.rec) })
	if err != nil {
		return err
	}
	var sim simAcc
	var pvaTraces []memsys.Trace
	var pvaCycles, pvaElems, baseElems, cmds uint64
	for id, c := range cells {
		cmds += uint64(len(c.tr.Cmds))
		if c.failed != !out.Done[id] || !c.failed && c.cycles != out.Points[id].Cycles {
			rp.t.wrong = append(rp.t.wrong, fmt.Sprintf("replay of %s diverges from the sweep", c.name))
		}
		switch {
		case c.failed:
		case layerOf(c.system) == "baseline":
			baseElems += elements(c.tr)
		default:
			pvaCycles += c.cycles
			pvaElems += elements(c.tr)
			if c.system == harness.PVASDRAM {
				sim.add(c)
				pvaTraces = append(pvaTraces, c.tr)
			}
		}
	}

	r, tot := rp.commonRows(mark, cmds, pvaElems, pvaCycles, overhead)
	r["baseline.run_ms"] = ms(tot["baseline.run"])
	r["baseline.ns_per_element"] = per(tot["baseline.run"], baseElems)
	r["harness.sweep_ms"] = sweepMS
	r["harness.failed_cells"] = float64(len(o.failed))
	r["harness.golden_drift_cells"] = float64(o.drifted)
	var layerMS float64
	for _, n := range []string{"kernels.build", "memsys.restore", "memsys.reference", "pvaunit.new",
		"pvaunit.run", "pvaunit.run.failed", "baseline.new", "baseline.run"} {
		layerMS += ms(tot[n])
	}
	r["harness.overhead_frac"] = (sweepMS - layerMS) / sweepMS
	sim.fill(r)

	cfg := pvaunit.PaperConfig()
	dec, err := addrmap.Parse(s.runner.AddrMap, s.channels(), cfg.Banks, cfg.LineWords)
	if err != nil {
		return err
	}
	sys, err := s.newSystem(harness.PVASDRAM)
	if err != nil {
		return err
	}
	if err := rp.probe(r, pvaTraces, dec, sys.(*pvaunit.System), sim.cycles); err != nil {
		return err
	}
	rp.finish(s.input(i), r)
	return nil
}

// rungRun is one replay of a search's full-simulation rung.
type rungRun struct {
	traces   []memsys.Trace
	totals   []uint64 // per decoder, in spec order
	winner   []cellRun
	elements uint64
	cycles   uint64
}

// replayRung rebuilds the workload's traces and reruns every fully
// evaluated decoder over them on one warm-started PVA-SDRAM system per
// decoder, as the search's full-simulation rung does. The winner's runs
// are verified against the functional reference.
func (t *tune) replayRung(rec *recorder, specs []string) (rungRun, error) {
	var rr rungRun
	for j, st := range harness.PaperStrides() {
		b := rec.begin("kernels.build", j)
		p := kernels.PaperParams(st, 0)
		p.Elements = t.elements
		rr.traces = append(rr.traces, t.kernel.Build(p))
		rec.end(b)
	}
	for d, spec := range specs {
		f := rec.begin("autotune.full_sim", -1)
		n := rec.begin("pvaunit.new", -1)
		cfg := pvaunit.PaperConfig()
		cfg.WatchdogCycles = watchdog
		dec, err := addrmap.Parse(spec, 1, cfg.Banks, cfg.LineWords)
		var sys *pvaunit.System
		if err == nil {
			cfg.Decoder = dec
			sys, err = pvaunit.New(cfg)
		}
		rec.end(n)
		if err != nil {
			return rr, err
		}
		base := sys.Snapshot()
		var total uint64
		for j, tr := range rr.traces {
			id := d*len(rr.traces) + j
			cs := rec.begin("cell", id)
			if j > 0 {
				r := rec.begin("memsys.restore", id)
				err := sys.Restore(base)
				rec.end(r)
				if err != nil {
					return rr, err
				}
			}
			r := rec.begin("pvaunit.run", id)
			res, err := sys.Run(tr)
			rec.end(r)
			c := cellRun{name: fmt.Sprintf("%s stride %d under %s", t.w.Name, harness.PaperStrides()[j], spec),
				system: harness.PVASDRAM, channels: 1, tr: tr, cycles: res.Cycles, stats: res.Stats, failed: err != nil}
			if err != nil {
				rec.rename(r, "pvaunit.run.failed")
			} else {
				total += res.Cycles
				rr.cycles += res.Cycles
				rr.elements += elements(tr)
			}
			if d == 0 && err == nil {
				c.load = loadImbalance(sys)
				v := rec.begin("memsys.reference", id)
				c.failed = verify(sys, tr, res) != nil
				rec.end(v)
			}
			if d == 0 {
				rr.winner = append(rr.winner, c)
			}
			rec.end(cs)
		}
		rr.totals = append(rr.totals, total)
		rec.end(f)
	}
	return rr, nil
}

func (t *tune) replay(i int, rp *replayer) error {
	sp := rp.rec.begin("autotune.search", -1)
	t0 := time.Now()
	res, err := pva.AutotuneTrace(t.w, t.options(i))
	searchMS := ms(time.Since(t0))
	rp.rec.end(sp)
	rp.t.add(t.input(i), t.check(i, searchOut{res, err}))
	if err != nil {
		return nil
	}
	var specs []string
	var want []uint64
	for _, c := range res.Survivors {
		specs, want = append(specs, c.Spec), append(want, c.Cycles)
	}
	for _, n := range []string{"word", "line", "xor"} {
		specs, want = append(specs, n), append(want, res.Baselines[n])
	}
	rr, mark, overhead, err := both(rp, i, func() (rungRun, error) { return t.replayRung(rp.rec, specs) })
	if err != nil {
		return err
	}
	for d, tot := range rr.totals {
		if tot != want[d] {
			rp.t.wrong = append(rp.t.wrong, fmt.Sprintf("replay under %s totals %d cycles, the search measured %d", specs[d], tot, want[d]))
		}
	}
	var sim simAcc
	var cmds uint64
	for _, tr := range rr.traces {
		cmds += uint64(len(tr.Cmds))
	}
	for _, c := range rr.winner {
		if c.failed {
			rp.t.wrong = append(rp.t.wrong, "winner run failed or mismatches the reference: "+c.name)
			continue
		}
		sim.add(c)
	}

	r, tot := rp.commonRows(mark, cmds, rr.elements, rr.cycles, overhead)
	r["autotune.search_ms"] = searchMS
	r["autotune.surrogate_evals"] = float64(res.SurrogateEvals)
	r["autotune.full_evals"] = float64(res.FullEvals)
	r["autotune.promote_ratio"] = ratio(uint64(res.FullEvals), uint64(res.SurrogateEvals))
	r["autotune.full_sim_ms"] = ms(tot["pvaunit.new"] + tot["memsys.restore"] + tot["pvaunit.run"] + tot["pvaunit.run.failed"])
	sim.fill(r)

	cfg := pvaunit.PaperConfig()
	cfg.WatchdogCycles = watchdog
	if cfg.Decoder, err = addrmap.Parse(res.Best.Spec, 1, cfg.Banks, cfg.LineWords); err != nil {
		return err
	}
	sys, err := pvaunit.New(cfg)
	if err != nil {
		return err
	}
	var traces []memsys.Trace
	for _, c := range rr.winner {
		if !c.failed {
			traces = append(traces, c.tr)
		}
	}
	if err := rp.probe(r, traces, cfg.Decoder, sys, sim.cycles); err != nil {
		return err
	}
	rp.finish(t.input(i), r)
	return nil
}

// commonRows starts an iteration's rows with those both replays take the
// same way from the traced replay's spans (recorded since mark): pvaElems
// and pvaCycles are the elements and simulated cycles of the replay's
// completed PVA runs. It also returns the span totals by name.
func (rp *replayer) commonRows(mark int, cmds, pvaElems, pvaCycles uint64, overhead float64) (rows, map[string]time.Duration) {
	tot := rp.rec.totals(mark)
	return rows{
		"kernels.build_ms":         ms(tot["kernels.build"]),
		"kernels.cmds":             float64(cmds),
		"pvaunit.run_ms":           ms(tot["pvaunit.run"]),
		"pvaunit.ns_per_element":   per(tot["pvaunit.run"], pvaElems),
		"pvaunit.ns_per_sim_cycle": per(tot["pvaunit.run"], pvaCycles),
		"pvaunit.failed_run_ms":    ms(tot["pvaunit.run.failed"]),
		"memsys.reference_ms":      ms(tot["memsys.reference"]),
		"memsys.restore_us":        per(tot["memsys.restore"], uint64(rp.rec.count(mark, "memsys.restore"))) / 1e3,
		"trace.overhead_frac":      overhead,
	}, tot
}

// simAcc sums the simulated counters of the PVA-SDRAM cells a replay
// completed.
type simAcc struct {
	s          memsys.Stats
	cycles     []uint64 // per cell, in replay order
	chanCycles uint64   // cycles times channels: the bus's capacity
	load       float64
}

func (a *simAcc) add(c cellRun) {
	a.s.Merge(c.stats)
	a.cycles = append(a.cycles, c.cycles)
	a.chanCycles += c.cycles * uint64(c.channels)
	a.load += c.load
}

func (a *simAcc) fill(r rows) {
	s := a.s
	r["bus.busy_frac"] = ratio(s.BusBusyCycles, a.chanCycles)
	r["bus.turnaround_cycles"] = float64(s.TurnaroundCycles)
	r["bus.index_cycles"] = float64(s.IndexBusCycles)
	r["bankctl.claim_imbalance"] = ratio(s.IndexedMaxBankClaim, s.IndexedElements)
	r["bankctl.bank_load_imbalance"] = a.load / float64(max(len(a.cycles), 1))
	r["sdram.row_hit_ratio"] = ratio(s.RowHits, s.SDRAMReads+s.SDRAMWrites)
	r["sdram.activates"] = float64(s.Activates)
	r["dramtech.row_conflicts"] = float64(s.RowConflicts)
	r["dramtech.partition_stalls"] = float64(s.PartitionStalls)
	r["dramtech.read_latency_avg"] = ratio(s.ReadLatencyCycles, s.SDRAMReads)
	r["dramtech.write_latency_avg"] = ratio(s.WriteLatencyCycles, s.SDRAMWrites)
}

// probeSink keeps the probes' results live so the compiler keeps the
// calls they time.
var probeSink uint32

// probe measures the layers a pass reaches only from inside other
// layers, on the PVA-SDRAM traces the replay completed: K1PLA.FirstHit
// per strided command and bank (when the decoder's hit math is the
// closed form), Decoder.Decode per element address, the streaming
// Session's ticket timing, and the checkpoint codec on the paper-grid
// image. cycles are the traces' cycles from the replay, which the
// Session must reproduce.
func (rp *replayer) probe(r rows, traces []memsys.Trace, dec addrmap.Decoder, sys *pvaunit.System, cycles []uint64) error {
	var sink uint32
	if hm, ok := dec.(addrmap.HitMath); ok {
		g := hm.HitGeometry()
		pla := core.NewK1PLA(g)
		var calls uint64
		sp := rp.rec.begin("core.firsthit", -1)
		t0 := time.Now()
		for _, tr := range traces {
			for _, c := range tr.Cmds {
				if c.Indexed() {
					continue
				}
				for b := uint32(0); b < g.M; b++ {
					sink += pla.FirstHit(c.V, b)
				}
				calls += uint64(g.M)
			}
		}
		r["core.firsthit_ns"] = per(time.Since(t0), calls)
		rp.rec.end(sp)
		r["core.firsthit_calls"] = float64(calls)
	}

	var decodes uint64
	sp := rp.rec.begin("addrmap.decode", -1)
	t0 := time.Now()
	for _, tr := range traces {
		for _, c := range tr.Cmds {
			for i := uint32(0); i < c.V.Length; i++ {
				sink += dec.Decode(c.Addr(i)).Bank
			}
			decodes += uint64(c.V.Length)
		}
	}
	r["addrmap.decode_ns"] = per(time.Since(t0), decodes)
	rp.rec.end(sp)
	r["addrmap.decodes"] = float64(decodes)
	probeSink += sink

	sp = rp.rec.begin("pvaunit.session", -1)
	err := rp.queue(r, sys, traces, cycles)
	rp.rec.end(sp)
	if err != nil {
		return err
	}
	return rp.codec(r)
}

// queue replays traces through a streaming Session with the queue bound
// lifted, as Run does, and sets the admission-wait and service
// percentiles over every ticket, in simulated cycles.
func (rp *replayer) queue(r rows, sys *pvaunit.System, traces []memsys.Trace, cycles []uint64) error {
	var admit, service []uint64
	base := sys.Snapshot()
	for j, tr := range traces {
		if err := sys.Restore(base); err != nil {
			return err
		}
		ses, err := sys.Open()
		if err != nil {
			return err
		}
		if err := ses.SetQueueDepth(len(tr.Cmds) + 1); err != nil {
			return err
		}
		tickets := make([]pvaunit.Ticket, len(tr.Cmds))
		for k, c := range tr.Cmds {
			if tickets[k], err = ses.Issue(c); err != nil {
				return err
			}
		}
		if err := ses.Drain(); err != nil {
			return err
		}
		res, err := ses.Result()
		if err != nil {
			return err
		}
		if res.Cycles != cycles[j] {
			rp.t.wrong = append(rp.t.wrong, fmt.Sprintf("session replay took %d cycles where Run took %d", res.Cycles, cycles[j]))
		}
		for _, tk := range tickets {
			ti, err := ses.Poll(tk)
			if err != nil {
				return err
			}
			admit = append(admit, ti.IssuedAt-ti.AcceptedAt)
			service = append(service, ti.CompletedAt-ti.IssuedAt)
		}
	}
	r["pvaunit.admit_wait_cycles_p50"] = percentile(admit, 50)
	r["pvaunit.admit_wait_cycles_p99"] = percentile(admit, 99)
	r["pvaunit.service_cycles_p50"] = percentile(service, 50)
	r["pvaunit.service_cycles_p99"] = percentile(service, 99)
	return nil
}

// codecReps encodes and decodes the image this many times per iteration,
// enough work for a steady throughput figure.
const codecReps = 16

// codec sets the checkpoint codec's encode and decode throughput on the
// paper-grid memory image, in MB of encoding per second.
func (rp *replayer) codec(r rows) error {
	var buf bytes.Buffer
	sp := rp.rec.begin("ckptio.encode", -1)
	t0 := time.Now()
	for k := 0; k < codecReps; k++ {
		buf.Reset()
		if err := ckptio.Encode(&buf, ckptio.Checkpoint{Image: rp.img}); err != nil {
			return err
		}
	}
	enc := time.Since(t0)
	rp.rec.end(sp)
	data := buf.Bytes()
	sp = rp.rec.begin("ckptio.decode", -1)
	t0 = time.Now()
	for k := 0; k < codecReps; k++ {
		if _, err := ckptio.Decode(data); err != nil {
			return err
		}
	}
	decode := time.Since(t0)
	rp.rec.end(sp)
	mb := float64(len(data)) * codecReps / 1e6
	r["ckptio.encode_mb_per_s"] = mb / enc.Seconds()
	r["ckptio.decode_mb_per_s"] = mb / decode.Seconds()
	return nil
}

// paperImage is the memory image a paper-grid pass leaves when its
// PVA-SDRAM cells run back to back on one system without rewinding.
func paperImage(elements uint32) (*memsys.Image, error) {
	cfg := pvaunit.PaperConfig()
	cfg.WatchdogCycles = watchdog
	sys, err := pvaunit.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, k := range kernels.All() {
		for _, st := range harness.PaperStrides() {
			for a := 0; a < kernels.Alignments; a++ {
				p := kernels.PaperParams(st, a)
				p.Elements = elements
				if _, err := sys.Run(k.Build(p)); err != nil {
					return nil, err
				}
			}
		}
	}
	return sys.MemoryImage(), nil
}

// loadImbalance is the busiest device's accesses over the mean.
func loadImbalance(p *pvaunit.System) float64 {
	var top, sum uint64
	ds := p.DeviceStats()
	for _, d := range ds {
		n := d.Reads + d.Writes
		sum += n
		top = max(top, n)
	}
	return ratio(top*uint64(len(ds)), sum)
}

// percentile is the nearest-rank p-th percentile; 0 for no values.
func percentile(xs []uint64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := (p*len(s) + 99) / 100
	return float64(s[max(k, 1)-1])
}

func elements(tr memsys.Trace) uint64 {
	var n uint64
	for _, c := range tr.Cmds {
		n += uint64(c.V.Length)
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// per is a duration in ns per unit of n; 0 when n is 0.
func per(d time.Duration, n uint64) float64 { return ratio(uint64(d), n) }

// ratio is a/b; 0 when b is 0.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
