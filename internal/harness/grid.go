// The sweep planner: a Grid names the values of each axis, and plan
// expands it into the cell list every sweep executes through runJobs.

package harness

import (
	"cmp"
	"fmt"
	"slices"

	"pva/internal/addrmap"
	"pva/internal/dramtech"
	"pva/internal/kernels"
	"pva/internal/pvaunit"
)

// Grid selects a sweep's cells: the cross product of kernels, strides,
// the five alignments, systems, channel counts and, for pva-sdram,
// device back ends. A nil axis takes its default: every strided kernel,
// the paper's strides, all four systems, and the runner's own channel
// count and back end.
type Grid struct {
	Kernels  []string
	Strides  []uint32
	Systems  []SystemKind
	Channels []uint32
	// Techs names pva-sdram back ends by the labels the reports print:
	// "sdram", "salp-<subarrays>", "pcm-<partitions>p". The other
	// systems ignore the back end and run once per channel count.
	Techs []string
}

// backEnd is a pva-sdram device back end, as Runner.Tech, Subarrays and
// Partitions select it.
type backEnd struct {
	tech                  string
	subarrays, partitions uint32
}

// label names the back end as the reports print it: "salp-4", "pcm-4p",
// or "" for the paper's SDRAM.
func (b backEnd) label() string {
	switch b.tech {
	case "salp":
		return fmt.Sprintf("salp-%d", max(b.subarrays, 1))
	case "pcm":
		return fmt.Sprintf("pcm-%dp", max(b.partitions, 1))
	}
	return ""
}

// parseBackEnd inverts label, reading "sdram" as the paper's SDRAM.
// Only the exact labels the reports print parse: a string that does not
// round-trip is unknown.
func parseBackEnd(s string) (backEnd, error) {
	var b backEnd
	if _, err := fmt.Sscanf(s, "salp-%d", &b.subarrays); err == nil {
		b.tech = "salp"
	} else if _, err := fmt.Sscanf(s, "pcm-%dp", &b.partitions); err == nil {
		b.tech = "pcm"
	}
	if cmp.Or(b.label(), "sdram") != s {
		return backEnd{}, fmt.Errorf("harness: unknown back end %q (want sdram, salp-<subarrays> or pcm-<partitions>p)", s)
	}
	return b, nil
}

// machine is the hardware one cell runs on: a system kind at a channel
// count, with a back end for pva-sdram. Sweep workers keep one warm
// system per machine.
type machine struct {
	system   SystemKind
	channels uint32
	tech     backEnd
}

// machine returns the runner's own machine for a system kind.
func (r Runner) machine(k SystemKind) machine {
	m := machine{system: k, channels: r.channels()}
	if k == PVASDRAM {
		m.tech = backEnd{r.Tech, r.Subarrays, r.Partitions}
	}
	return m
}

// on returns the runner configured for machine m.
func (r Runner) on(m machine) Runner {
	r.Channels = m.channels
	if m.system == PVASDRAM {
		r.Tech, r.Subarrays, r.Partitions = m.tech.tech, m.tech.subarrays, m.tech.partitions
	}
	return r
}

// job is one cell of a planned sweep.
type job struct {
	kernel    kernels.Kernel
	stride    uint32
	alignment int
	machine
}

// String names the cell by its coordinates, as errors print it.
func (j job) String() string {
	return cellName(j.kernel.Name, j.stride, j.alignment, j.system, j.channels, j.tech.label())
}

// cellName renders a cell's coordinates for errors and manifests:
// "copy stride 19 align 2 on pva-sdram/pcm-4p at 2 ch".
func cellName(kernel string, stride uint32, alignment int, sys SystemKind, channels uint32, tech string) string {
	if tech != "" {
		tech = "/" + tech
	}
	return fmt.Sprintf("%s stride %d align %d on %s%s at %d ch", kernel, stride, alignment, sys, tech, channels)
}

// plan validates a grid and expands it into its cells in canonical
// order: channel count, kernel, stride, alignment, system, back end.
// Every sweep executes exactly this list, so results land index for
// index whatever the worker count.
func (r Runner) plan(g Grid) ([]job, error) {
	ks, err := kernelsByName(g.Kernels)
	if err != nil {
		return nil, err
	}
	strides, systems, chans := g.Strides, g.Systems, g.Channels
	if strides == nil {
		strides = PaperStrides()
	}
	if systems == nil {
		systems = AllSystems()
	}
	if chans == nil {
		chans = []uint32{r.channels()}
	}
	techs := []backEnd{r.machine(PVASDRAM).tech}
	if g.Techs != nil {
		techs = techs[:0]
		for _, s := range g.Techs {
			b, err := parseBackEnd(s)
			if err != nil {
				return nil, err
			}
			techs = append(techs, b)
		}
	}
	for _, b := range techs {
		if err := dramtech.ValidateSelection(b.tech, b.subarrays, b.partitions); err != nil {
			return nil, err
		}
	}
	// Only exact labels parse, so distinct labels are distinct back ends.
	for _, err := range []error{repeated("kernel", g.Kernels), repeated("stride", strides),
		repeated("system", systems), repeated("channel count", chans), repeated("back end", g.Techs)} {
		if err != nil {
			return nil, err
		}
	}
	for _, s := range systems {
		if s < PVASDRAM || s >= numSystems {
			return nil, fmt.Errorf("harness: unknown system %d", int(s))
		}
	}
	cfg := pvaunit.PaperConfig()
	for _, c := range chans {
		if _, err := addrmap.Parse(r.AddrMap, c, cfg.Banks, cfg.LineWords); err != nil {
			return nil, err
		}
	}

	jobs := make([]job, 0, len(chans)*len(ks)*len(strides)*kernels.Alignments*(len(systems)+len(techs)))
	for _, c := range chans {
		for _, k := range ks {
			for _, s := range strides {
				for a := 0; a < kernels.Alignments; a++ {
					for _, sys := range systems {
						m := machine{system: sys, channels: c}
						if sys != PVASDRAM {
							jobs = append(jobs, job{k, s, a, m})
							continue
						}
						for _, t := range techs {
							m.tech = t
							jobs = append(jobs, job{k, s, a, m})
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

// kernelsByName resolves kernel names; nil names every strided kernel.
func kernelsByName(names []string) ([]kernels.Kernel, error) {
	if names == nil {
		return kernels.All(), nil
	}
	ks := make([]kernels.Kernel, 0, len(names))
	for _, n := range names {
		k, err := kernels.ByName(n)
		if err != nil {
			return nil, err
		}
		ks = append(ks, k)
	}
	return ks, nil
}

// repeated reports the first value an axis lists twice.
func repeated[T comparable](axis string, vs []T) error {
	for i, v := range vs {
		if slices.Contains(vs[:i], v) {
			return fmt.Errorf("harness: %s %v listed twice", axis, v)
		}
	}
	return nil
}

// Validate reports the first grid axis value no sweep can run: an
// unknown kernel, system or back end, a channel count the decoder
// cannot split, or a value an axis lists twice. Every sweep runs these
// checks before its first cell.
func (r Runner) Validate(g Grid) error {
	_, err := r.plan(g)
	return err
}

// Sweep measures a grid's cells on up to workers goroutines (<= 0: one
// per CPU), failing fast: the first failing cell aborts the sweep with
// an error naming it. The points are in plan order.
func (r Runner) Sweep(g Grid, workers int) ([]Point, error) {
	jobs, err := r.plan(g)
	if err != nil {
		return nil, err
	}
	out, err := r.runJobs(jobs, workers, runConfig{})
	if err != nil {
		return nil, err
	}
	return out.Points, nil
}
