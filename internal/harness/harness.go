// Package harness runs the paper's evaluation (Section 6): every kernel
// at strides {1, 2, 4, 8, 16, 19} and five relative vector alignments on
// the four memory systems, then renders the rows behind Figures 7–11 and
// the headline speedup ratios.
package harness

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"pva/internal/addrmap"
	"pva/internal/baseline"
	"pva/internal/core"
	"pva/internal/fault"
	"pva/internal/kernels"
	"pva/internal/memsys"
	"pva/internal/pvaunit"
)

// SystemKind enumerates the memory systems of Section 6.1.
type SystemKind int

const (
	// PVASDRAM is the Parallel Vector Access prototype.
	PVASDRAM SystemKind = iota
	// CacheLineSerial is the conventional line-fill system.
	CacheLineSerial
	// GatheringSerial is the pipelined serial gathering system.
	GatheringSerial
	// PVASRAM is the idealized single-cycle-memory PVA.
	PVASRAM
	numSystems
)

// AllSystems lists every system kind in report order.
func AllSystems() []SystemKind {
	return []SystemKind{PVASDRAM, CacheLineSerial, GatheringSerial, PVASRAM}
}

// String implements fmt.Stringer.
func (k SystemKind) String() string {
	switch k {
	case PVASDRAM:
		return "pva-sdram"
	case CacheLineSerial:
		return "cacheline-serial"
	case GatheringSerial:
		return "gathering-serial"
	case PVASRAM:
		return "pva-sram"
	default:
		return fmt.Sprintf("system(%d)", int(k))
	}
}

// MarshalJSON emits the system's report name, so JSON output reads
// "pva-sdram" rather than an enum ordinal.
func (k SystemKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// ParseSystemKind inverts String/MarshalJSON.
func ParseSystemKind(name string) (SystemKind, error) {
	for _, k := range AllSystems() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("harness: unknown system %q", name)
}

// UnmarshalJSON accepts the report name, so journal records replay to
// the exact Point that was recorded.
func (k *SystemKind) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("harness: system kind must be a JSON string, got %s", data)
	}
	got, err := ParseSystemKind(string(data[1 : len(data)-1]))
	if err != nil {
		return err
	}
	*k = got
	return nil
}

// PaperStrides are the six strides of Figures 7–10.
func PaperStrides() []uint32 { return []uint32{1, 2, 4, 8, 16, 19} }

// Point is one measured experimental point: a cell's coordinates and
// its measurements.
type Point struct {
	Kernel    string     `json:"kernel"`
	Stride    uint32     `json:"stride"`
	Alignment int        `json:"alignment"`
	System    SystemKind `json:"system"`
	Channels  uint32     `json:"channels"`
	// Tech labels a pva-sdram cell's device back end ("salp-4",
	// "pcm-4p"); empty for the paper's SDRAM and for the systems the
	// back end does not apply to.
	Tech    string         `json:"tech,omitempty"`
	Cycles  uint64         `json:"cycles"`
	Stats   memsys.Stats   `json:"stats"`
	PerChan []memsys.Stats `json:"channel_stats,omitempty"`
}

// Runner configures a sweep.
type Runner struct {
	// Elements per application vector; 0 means the paper's 1024.
	Elements uint32
	// Verify checks every point against a cold-start functional
	// reference run of its trace and fails on any data divergence (used
	// by the integration tests and the benchmark; the cycle-level models
	// are self-checking either way). A sweep runs the reference once per
	// trace group and checks each of the group's cells against it.
	Verify bool
	// Channels selects multi-channel system variants; 0 or 1 is the
	// paper's single-channel configuration. A Grid's Channels axis
	// overrides it.
	Channels uint32
	// AddrMap names the address decoder ("word", "line", "xor", or a
	// "tuned:<mask,...>" XOR-hash spec); empty means the paper's word
	// interleave.
	AddrMap string
	// Fault selects deterministic fault injection for the PVA systems
	// under sweep (the serial baselines model no fault machinery and
	// ignore it). The zero value injects nothing.
	Fault fault.Plan
	// Watchdog arms the PVA forward-progress watchdog, in cycles
	// (0: disabled).
	Watchdog uint64
	// Tech selects the PVA SDRAM system's device back end ("sdram",
	// "salp", "pcm"; empty: sdram). The serial baselines and the SRAM
	// system ignore it. A Grid's Techs axis overrides it, Subarrays and
	// Partitions included.
	Tech string
	// Subarrays sets subarrays per internal bank for Tech="salp".
	Subarrays uint32
	// Partitions sets partitions per internal bank for Tech="pcm".
	Partitions uint32
	// CellTimeout is the per-cell wall-clock deadline for fault-isolated
	// sweeps, layered above the simulated-cycle watchdog (0: none). A
	// timed-out cell's systems are discarded, never reused.
	CellTimeout time.Duration
	// Retries is how many times a failing cell is re-attempted (on fresh
	// systems) before quarantine; 0 means a single attempt.
	Retries int
	// RetryBackoff is the sleep before retry attempt n, doubled each
	// attempt (0: retry immediately).
	RetryBackoff time.Duration
}

// channels normalizes the channel count (0 means 1).
func (r Runner) channels() uint32 {
	if r.Channels == 0 {
		return 1
	}
	return r.Channels
}

// newSystem constructs the system for one point on the runner's
// machine: its channel count, address decoder, back end and fault
// settings. The zero Runner builds the paper's machine; the 960-point
// seed golden pins that.
func (r Runner) newSystem(k SystemKind) (memsys.System, error) {
	switch k {
	case PVASDRAM, PVASRAM:
		cfg := pvaunit.PaperConfig()
		if k == PVASRAM {
			cfg = pvaunit.SRAMConfig()
		} else if err := pvaunit.ApplyTech(&cfg, r.Tech, r.Subarrays, r.Partitions); err != nil {
			return nil, err
		}
		dec, err := addrmap.Parse(r.AddrMap, r.channels(), cfg.Banks, cfg.LineWords)
		if err != nil {
			return nil, err
		}
		cfg.Channels = r.channels()
		cfg.Decoder = dec
		cfg.Fault = r.Fault
		cfg.WatchdogCycles = r.Watchdog
		return pvaunit.New(cfg)
	case CacheLineSerial:
		// A line-fill system parallelizes at line granularity whatever the
		// PVA decoder is; only the channel count matters. Planning has
		// rejected a mistyped decoder before any system is built.
		return baseline.NewCacheLineSerialChannels(r.channels()), nil
	case GatheringSerial:
		cfg := pvaunit.PaperConfig()
		dec, err := addrmap.Parse(r.AddrMap, r.channels(), cfg.Banks, cfg.LineWords)
		if err != nil {
			return nil, err
		}
		return baseline.NewGatheringSerialChannels(dec), nil
	default:
		return nil, fmt.Errorf("harness: unknown system %d", int(k))
	}
}

// Params returns the kernel parameters of the runner's cells at a
// stride and alignment: the paper's machine at the runner's vector
// length.
func (r Runner) Params(stride uint32, alignment int) kernels.Params {
	p := kernels.PaperParams(stride, alignment)
	if r.Elements != 0 {
		p.Elements = r.Elements
	}
	return p
}

// RunPoint measures one (kernel, stride, alignment, system) cell on a
// freshly constructed system under the runner's failure policy, as a
// sweep runs each cell: a per-cell deadline, bounded retry on fresh
// systems, and a panic in the kernel builder or the simulator returned
// as an error naming the cell. The zero policy is one attempt with no
// deadline.
func (r Runner) RunPoint(kernel kernels.Kernel, stride uint32, alignment int, kind SystemKind) (Point, error) {
	p, _, err := newGuardedRunner(r).run(job{kernel: kernel, stride: stride, alignment: alignment, machine: r.machine(kind)})
	return p, err
}

// measure runs cell j's trace on an already-constructed (fresh or
// rewound-to-cold) system of the cell's machine and assembles its
// Point. The trace, and the reference run a verified cell is checked
// against, belong to the runner's current trace group.
func (c *cellRunner) measure(sys memsys.System, j job) (Point, error) {
	res, err := sys.Run(c.traceOf(j))
	if err != nil {
		return Point{}, fmt.Errorf("harness: %v: %w", j, err)
	}
	if c.r.Verify {
		if err := c.verify(sys, res); err != nil {
			return Point{}, fmt.Errorf("harness: %v: %w", j, err)
		}
	}
	// ChannelStats is the session's reusable buffer; the Point outlives
	// the next Run on a warm-started system, so it must own a copy.
	var perChan []memsys.Stats
	if len(res.ChannelStats) > 0 {
		perChan = append(perChan, res.ChannelStats...)
	}
	return Point{
		Kernel:    j.kernel.Name,
		Stride:    j.stride,
		Alignment: j.alignment,
		System:    j.system,
		Channels:  c.r.on(j.machine).channels(),
		Tech:      j.tech.label(),
		Cycles:    res.Cycles,
		Stats:     res.Stats,
		PerChan:   perChan,
	}, nil
}

// verify compares a run of the current trace group's trace with the
// cold-start reference run of that trace: every gathered line, and the
// final word at every address the trace touches, both in trace order.
// The reference runs on the group's first verified cell, on the
// runner's reference rewound to cold, and leaves the group its gathered
// lines and its final image (recordImage); its result is a pure
// function of the trace, so every cell of the group gets the verdict a
// reference run of its own would give.
func (c *cellRunner) verify(sys memsys.System, res memsys.Result) error {
	if !c.checked {
		if c.ref == nil {
			c.ref = memsys.NewReference()
		}
		c.ref.Reset()
		want, err := c.ref.Run(c.trace)
		if err != nil {
			return err
		}
		c.want, c.checked = want, true
		c.recordImage()
	}
	for i := range c.trace.Cmds {
		if c.trace.Cmds[i].Op != memsys.Read {
			continue
		}
		got, want := res.ReadData[i], c.want.ReadData[i]
		if len(got) != len(want) {
			return fmt.Errorf("cmd %d: got %d words, want %d", i, len(got), len(want))
		}
		for j, w := range want {
			if g := got[j]; g != w {
				return fmt.Errorf("cmd %d word %d: got %#x, want %#x", i, j, g, w)
			}
		}
	}
	for _, w := range c.image {
		if g := sys.Peek(w.addr); g != w.word {
			return fmt.Errorf("final image at %d: got %#x, want %#x", w.addr, g, w.word)
		}
	}
	return nil
}

// wordAt is one word of a final memory image.
type wordAt struct{ addr, word uint32 }

// vecKey identifies the addresses a command touches: its vector, and
// an indexed command's offsets by identity.
type vecKey struct {
	v   core.Vector
	idx *uint32
}

// recordImage lists the reference's final word at every address the
// group's trace touches, in first-touch order. A vector the trace
// touches again (one it reads and then writes) adds nothing: its
// addresses are already listed, so checking them again could not find
// an earlier mismatch.
func (c *cellRunner) recordImage() {
	c.image = c.image[:0]
	if c.seen == nil {
		c.seen = make(map[vecKey]bool)
	}
	clear(c.seen)
	for i := range c.trace.Cmds {
		cmd := &c.trace.Cmds[i]
		k := vecKey{v: cmd.V}
		if len(cmd.Idx) > 0 {
			k.idx = &cmd.Idx[0]
		}
		if c.seen[k] {
			continue
		}
		c.seen[k] = true
		for j := uint32(0); j < cmd.V.Length; j++ {
			a := cmd.Addr(j)
			c.image = append(c.image, wordAt{a, c.ref.Peek(a)})
		}
	}
}

// Range is a collated cell's execution time over the alignment sweep,
// with the point of its fastest alignment (the first, on a tie), whose
// counters the back-end table reports.
type Range struct {
	Min, Max uint64
	Best     Point
}

// Collate reduces points to one Range per cell over the alignment
// sweep, keyed by every other coordinate.
func Collate(points []Point) map[Key]Range {
	out := make(map[Key]Range)
	for _, p := range points {
		k := Key{Kernel: p.Kernel, Stride: p.Stride, System: p.System, Channels: p.Channels, Tech: p.Tech}
		r, ok := out[k]
		switch {
		case !ok:
			r = Range{Min: p.Cycles, Max: p.Cycles, Best: p}
		case p.Cycles < r.Min:
			r.Min, r.Best = p.Cycles, p
		case p.Cycles > r.Max:
			r.Max = p.Cycles
		}
		out[k] = r
	}
	return out
}

// Key identifies a collated cell: every coordinate but the alignment.
type Key struct {
	Kernel   string
	Stride   uint32
	System   SystemKind
	Channels uint32
	Tech     string
}

// withSystem returns the key of system sys's cell in k's row: the same
// kernel, stride and channel count, the back end kept for pva-sdram
// only.
func (k Key) withSystem(sys SystemKind) Key {
	k.System = sys
	if sys != PVASDRAM {
		k.Tech = ""
	}
	return k
}

// Headline summarizes the abstract's claims over a collated sweep:
// the best-case speedup of the PVA over the conventional line-fill
// system, over the serial gathering system, and the worst unit-stride
// ratio (how close the line-fill system comes at stride 1).
type Headline struct {
	MaxVsCacheLine   float64 // paper: up to 32.8x
	MaxVsCacheLineAt Key
	MaxVsGathering   float64 // paper: up to 3.3x
	MaxVsGatheringAt Key
	// UnitStrideWorst is the largest cacheline/PVA time ratio at stride
	// 1 (paper: the line-fill system runs at 100–109% of the PVA there).
	UnitStrideWorst float64
}

// Headlines computes the summary ratios. Comparisons use each system's
// minimum-over-alignments time against the PVA's minimum, matching the
// paper's normalization to "the minimum PVA SDRAM cycle time for each
// access pattern", on the same channel count. Cells are visited in
// sorted key order so ties break deterministically (map iteration order
// must not leak into reports). The claims are the paper's for its eight
// strided kernels, so only their cells count; a grid without them gets
// a zero Headline.
func Headlines(coll map[Key]Range) Headline {
	var h Headline
	for _, k := range sortedKeys(coll, func(k Key) (Key, bool) {
		return k, k.System == PVASDRAM && slices.Contains(paperKernels, k.Kernel)
	}) {
		pva := coll[k].Min
		clKey, gsKey := k.withSystem(CacheLineSerial), k.withSystem(GatheringSerial)
		if cl, ok := coll[clKey]; ok {
			ratio := float64(cl.Min) / float64(pva)
			if ratio > h.MaxVsCacheLine {
				h.MaxVsCacheLine = ratio
				h.MaxVsCacheLineAt = clKey
			}
			if k.Stride == 1 && ratio > h.UnitStrideWorst {
				h.UnitStrideWorst = ratio
			}
		}
		if gs, ok := coll[gsKey]; ok {
			ratio := float64(gs.Min) / float64(pva)
			if ratio > h.MaxVsGathering {
				h.MaxVsGathering = ratio
				h.MaxVsGatheringAt = gsKey
			}
		}
	}
	return h
}

// KernelsIn returns the kernel names present in a point set, in stable
// report order.
func KernelsIn(points []Point) []string {
	seen := map[string]bool{}
	var names []string
	for _, p := range points {
		if !seen[p.Kernel] {
			seen[p.Kernel] = true
			names = append(names, p.Kernel)
		}
	}
	sort.Strings(names)
	return names
}
