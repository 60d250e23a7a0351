// Text renderers for a sweep's report. The paper's figures each
// reproduce the rows/series behind one figure as an aligned text table;
// normalized annotations follow the paper's convention of percentages
// of the minimum PVA SDRAM time for the same access pattern and stride.
// The channel-scaling and back-end tables are the views of grids over
// those axes.

package harness

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"pva/internal/kernels"
	"pva/internal/memsys"
)

// Report writes the text report of a grid's points, choosing the view
// from the axes the points span: the channel-scaling table over several
// channel counts, the back-end table over several pva-sdram back ends,
// and for one machine the paper's Figures 7–11 and headline ratios.
func Report(w io.Writer, points []Point) {
	var chans []uint32
	var techs []string
	for _, p := range points {
		if !slices.Contains(chans, p.Channels) {
			chans = append(chans, p.Channels)
		}
		if p.System == PVASDRAM && !slices.Contains(techs, p.Tech) {
			techs = append(techs, p.Tech)
		}
	}
	coll := Collate(points)
	switch {
	case len(chans) > 1:
		renderChannels(w, coll, chans)
	case len(techs) > 1:
		renderBackEnds(w, coll, techs)
	default:
		renderFigures(w, coll, points)
	}
}

// paperKernels are the paper's eight strided kernels in the order of
// its Figures 7 and 8. The headline claims cover these kernels only.
var paperKernels = []string{"copy", "saxpy", "scale", "swap", "tridiag", "vaxpy", "copy2", "scale2"}

// renderFigures writes Figures 7–11 and the headline ratios of a
// one-machine grid, whose cells the figures key by kernel, stride and
// system alone. Each figure draws only the kernels and strides the
// points span.
func renderFigures(w io.Writer, coll map[Key]Range, points []Point) {
	fig := make(map[Key]Range, len(coll))
	var strides []uint32
	for k, r := range coll {
		fig[Key{Kernel: k.Kernel, Stride: k.Stride, System: k.System}] = r
		if !slices.Contains(strides, k.Stride) {
			strides = append(strides, k.Stride)
		}
	}
	slices.Sort(strides)
	names := KernelsIn(points)
	// Figures 7 and 8 split the kernels, the paper's in figure order
	// first; 9 and 10 the paper's fixed strides.
	order := slices.DeleteFunc(slices.Clone(paperKernels), func(k string) bool { return !slices.Contains(names, k) })
	for _, k := range names {
		if !slices.Contains(order, k) {
			order = append(order, k)
		}
	}
	for _, k := range order {
		RenderStrideChart(w, fig, k, strides)
	}
	for _, s := range []uint32{1, 4, 8, 16, 19} {
		if slices.Contains(strides, s) {
			RenderKernelChart(w, fig, s, names)
		}
	}
	if slices.Contains(names, "vaxpy") {
		RenderAlignmentDetail(w, points, "vaxpy", strides)
	}
	RenderHeadlines(w, Headlines(fig))
}

// renderChannels writes the channel-scaling table: one row per kernel,
// stride, system and back end, one column per channel count, each cell
// the min-over-alignments cycles with the speedup over the first
// channel count in parentheses.
func renderChannels(w io.Writer, coll map[Key]Range, chans []uint32) {
	fmt.Fprintf(w, "channel scaling — min-over-alignments cycles (speedup vs %d channel)\n", chans[0])
	fmt.Fprintf(w, "%10s %8s %18s", "kernel", "stride", "system")
	for _, c := range chans {
		fmt.Fprintf(w, " %18s", fmt.Sprintf("%d ch", c))
	}
	fmt.Fprintln(w)
	for _, row := range sortedKeys(coll, func(k Key) (Key, bool) { k.Channels = 0; return k, true }) {
		name := row.System.String()
		if row.Tech != "" {
			name += "/" + row.Tech
		}
		fmt.Fprintf(w, "%10s %8d %18s", row.Kernel, row.Stride, name)
		row.Channels = chans[0]
		base := coll[row].Min
		for _, c := range chans {
			row.Channels = c
			writeCell(w, coll, row, base)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// renderBackEnds writes the back-end table: one row per kernel and
// stride, one column per pva-sdram back end, each cell the
// min-over-alignments cycles with the speedup over cache-line serial in
// parentheses, then the conflict work of each back end's fastest cells.
func renderBackEnds(w io.Writer, coll map[Key]Range, techs []string) {
	fmt.Fprintln(w, "technology scaling — PVA min-over-alignments cycles (speedup vs cache-line serial)")
	fmt.Fprintf(w, "%10s %8s", "kernel", "stride")
	for _, t := range techs {
		fmt.Fprintf(w, " %18s", cmp.Or(t, "sdram"))
	}
	fmt.Fprintln(w)
	work := make([]memsys.Stats, len(techs))
	for _, row := range sortedKeys(coll, func(k Key) (Key, bool) { k.Tech = ""; return k, k.System == PVASDRAM }) {
		fmt.Fprintf(w, "%10s %8d", row.Kernel, row.Stride)
		base := coll[row.withSystem(CacheLineSerial)].Min
		for i, t := range techs {
			row.Tech = t
			if r, ok := writeCell(w, coll, row, base); ok {
				work[i].Merge(r.Best.Stats)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "conflict work — row conflicts / subarray hits / partition stalls (sum over patterns)")
	for i, t := range techs {
		fmt.Fprintf(w, "%18s %12d %12d %12d\n", cmp.Or(t, "sdram"), work[i].RowConflicts, work[i].SubarrayHits, work[i].PartitionStalls)
	}
	fmt.Fprintln(w)
}

// sortedKeys returns, in report order, the distinct keys that project
// maps the collated cells it keeps to: a table's rows, say, with the
// column axis zeroed.
func sortedKeys(coll map[Key]Range, project func(Key) (Key, bool)) []Key {
	var keys []Key
	for k := range coll {
		if p, keep := project(k); keep {
			keys = append(keys, p)
		}
	}
	slices.SortFunc(keys, func(a, b Key) int {
		return cmp.Or(strings.Compare(a.Kernel, b.Kernel), cmp.Compare(a.Stride, b.Stride),
			cmp.Compare(a.System, b.System), cmp.Compare(a.Channels, b.Channels), strings.Compare(a.Tech, b.Tech))
	})
	return slices.Compact(keys)
}

// writeCell writes one table cell, the min-over-alignments cycles of k with
// the speedup of base over them, or "-" when the grid has no such cell,
// and returns the cell.
func writeCell(w io.Writer, coll map[Key]Range, k Key, base uint64) (Range, bool) {
	r, ok := coll[k]
	if !ok {
		fmt.Fprintf(w, " %18s", "-")
		return r, false
	}
	speedup := 0.0
	if base != 0 && r.Min != 0 {
		speedup = float64(base) / float64(r.Min)
	}
	fmt.Fprintf(w, " %18s", fmt.Sprintf("%d (%.2fx)", r.Min, speedup))
	return r, true
}

// RenderStrideChart writes one Figure 7/8-style panel: execution cycles
// versus stride for one kernel on all four systems (PVA SRAM shown as
// min and max over alignments, like the paper's two SRAM bars).
func RenderStrideChart(w io.Writer, coll map[Key]Range, kernel string, strides []uint32) {
	fmt.Fprintf(w, "%s — execution cycles by stride (min..max over %d alignments)\n",
		kernel, kernels.Alignments)
	fmt.Fprintf(w, "%8s %20s %20s %20s %20s\n", "stride",
		PVASDRAM.String(), CacheLineSerial.String(), GatheringSerial.String(), PVASRAM.String())
	for _, s := range strides {
		fmt.Fprintf(w, "%8d", s)
		for _, sys := range AllSystems() {
			r := coll[Key{Kernel: kernel, Stride: s, System: sys}]
			fmt.Fprintf(w, " %9d..%-9d", r.Min, r.Max)
		}
		fmt.Fprintln(w)
	}
	// Normalized annotations (percent of PVA-SDRAM min), paper style.
	fmt.Fprintf(w, "%8s", "norm%")
	for range AllSystems() {
		fmt.Fprintf(w, " %20s", "")
	}
	fmt.Fprintln(w)
	for _, s := range strides {
		pvaMin := coll[Key{Kernel: kernel, Stride: s, System: PVASDRAM}].Min
		fmt.Fprintf(w, "%8d", s)
		for _, sys := range AllSystems() {
			r := coll[Key{Kernel: kernel, Stride: s, System: sys}]
			fmt.Fprintf(w, " %8.0f%%..%-8.0f%%", pct(r.Min, pvaMin), pct(r.Max, pvaMin))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// RenderKernelChart writes one Figure 9/10-style panel: normalized
// execution time for every kernel at one fixed stride.
func RenderKernelChart(w io.Writer, coll map[Key]Range, stride uint32, kernelNames []string) {
	fmt.Fprintf(w, "stride %d — normalized execution time (%% of PVA-SDRAM min per kernel)\n", stride)
	fmt.Fprintf(w, "%10s %18s %18s %18s %18s\n", "kernel",
		PVASDRAM.String(), CacheLineSerial.String(), GatheringSerial.String(), PVASRAM.String())
	for _, k := range kernelNames {
		pvaMin := coll[Key{Kernel: k, Stride: stride, System: PVASDRAM}].Min
		fmt.Fprintf(w, "%10s", k)
		for _, sys := range AllSystems() {
			r := coll[Key{Kernel: k, Stride: stride, System: sys}]
			fmt.Fprintf(w, " %7.0f%%..%-7.0f%%", pct(r.Min, pvaMin), pct(r.Max, pvaMin))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// RenderAlignmentDetail writes the Figure 11-style panel: the vaxpy (or
// any) kernel's execution time for each stride and relative alignment on
// the PVA SDRAM and PVA SRAM systems, with the SDRAM/SRAM ratio the
// paper uses to show how well SDRAM overheads are hidden.
func RenderAlignmentDetail(w io.Writer, points []Point, kernel string, strides []uint32) {
	type cell struct{ sdram, sram uint64 }
	cells := make(map[[2]uint32]*cell) // [stride, alignment]
	for _, p := range points {
		if p.Kernel != kernel {
			continue
		}
		key := [2]uint32{p.Stride, uint32(p.Alignment)}
		c, ok := cells[key]
		if !ok {
			c = &cell{}
			cells[key] = c
		}
		switch p.System {
		case PVASDRAM:
			c.sdram = p.Cycles
		case PVASRAM:
			c.sram = p.Cycles
		}
	}
	fmt.Fprintf(w, "%s — PVA SDRAM vs PVA SRAM by stride and alignment\n", kernel)
	fmt.Fprintf(w, "%8s %14s %12s %12s %10s\n", "stride", "alignment", "pva-sdram", "pva-sram", "sdram/sram")
	for _, s := range strides {
		for a := 0; a < kernels.Alignments; a++ {
			c, ok := cells[[2]uint32{s, uint32(a)}]
			if !ok || c.sram == 0 {
				continue
			}
			fmt.Fprintf(w, "%8d %14s %12d %12d %9.2fx\n",
				s, kernels.AlignmentName(a), c.sdram, c.sram,
				float64(c.sdram)/float64(c.sram))
		}
	}
	fmt.Fprintln(w)
}

// RenderHeadlines writes the abstract's summary ratios. A ratio the
// grid holds no cells for stays zero and its row is left out, so a grid
// without the paper's kernels prints no headlines at all.
func RenderHeadlines(w io.Writer, h Headline) {
	if h.MaxVsCacheLine == 0 && h.MaxVsGathering == 0 {
		return
	}
	fmt.Fprintf(w, "headline ratios (best case over kernels, strides, alignments)\n")
	if h.MaxVsCacheLine > 0 {
		fmt.Fprintf(w, "  PVA vs cache-line serial: %.1fx faster (at %s stride %d; paper: up to 32.8x)\n",
			h.MaxVsCacheLine, h.MaxVsCacheLineAt.Kernel, h.MaxVsCacheLineAt.Stride)
	}
	if h.MaxVsGathering > 0 {
		fmt.Fprintf(w, "  PVA vs gathering serial:  %.1fx faster (at %s stride %d; paper: up to 3.3x)\n",
			h.MaxVsGathering, h.MaxVsGatheringAt.Kernel, h.MaxVsGatheringAt.Stride)
	}
	if h.UnitStrideWorst > 0 {
		fmt.Fprintf(w, "  unit-stride: cache-line serial at %.0f%% of PVA (paper: 100-109%%)\n",
			100*h.UnitStrideWorst)
	}
}

// SDRAMvsSRAMWorst returns the largest PVA-SDRAM / PVA-SRAM time ratio
// in a point set (paper: at most ~1.15, Figure 11 discussion).
func SDRAMvsSRAMWorst(points []Point) float64 {
	type cell struct {
		kernel    string
		stride    uint32
		alignment int
		channels  uint32
	}
	sram := make(map[cell]uint64)
	for _, p := range points {
		if p.System == PVASRAM {
			sram[cell{p.Kernel, p.Stride, p.Alignment, p.Channels}] = p.Cycles
		}
	}
	worst := 0.0
	for _, p := range points {
		if p.System != PVASDRAM {
			continue
		}
		if s, ok := sram[cell{p.Kernel, p.Stride, p.Alignment, p.Channels}]; ok && s > 0 {
			if r := float64(p.Cycles) / float64(s); r > worst {
				worst = r
			}
		}
	}
	return worst
}

func pct(x, base uint64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(x) / float64(base)
}
