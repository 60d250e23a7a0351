// Command pvasim runs one kernel on one memory system and prints the
// cycle count and activity statistics.
//
// Usage:
//
//	pvasim -kernel copy -stride 19 -align 0 -system pva-sdram
//	pvasim -kernel vaxpy -stride 16 -elements 256 -system all
//	pvasim -kernel copy -channels 4 -addrmap xor -json
//	pvasim -kernel vaxpy -stride 19 -system pva-sdram -tech salp -subarrays 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"pva"
)

func main() {
	var (
		kernel   = flag.String("kernel", "copy", "kernel: "+strings.Join(pva.KernelNames(), ", "))
		stride   = flag.Uint("stride", 1, "element stride in words")
		align    = flag.Int("align", 0, "relative vector alignment (0-4)")
		elements = flag.Uint("elements", 1024, "elements per application vector (multiple of 32)")
		system   = flag.String("system", "all", "pva-sdram, cacheline-serial, gathering-serial, pva-sram, or all")
		channels = flag.Uint("channels", 1, "memory channels (power of two)")
		addrmap  = flag.String("addrmap", "word", "address decoder: word, line, xor, tuned:<mask,mask,...>")
		jsonOut  = flag.Bool("json", false, "emit measured points as JSON instead of the table")

		tech       = flag.String("tech", "", "device back end for the PVA SDRAM system: sdram, salp, pcm (default sdram)")
		subarrays  = flag.Uint("subarrays", 0, "subarrays per internal bank (tech=salp; power of two)")
		partitions = flag.Uint("partitions", 0, "partitions per internal bank (tech=pcm; power of two)")

		faultSeed = flag.Uint64("fault-seed", 0, "seed driving every fault-injection decision")
		faultRate = flag.Float64("fault-rate", 0, "base fault rate p: single-bit flip rate p, double-bit p/100, broadcast drop p/10 (PVA systems only)")
		deadBanks = flag.String("dead-banks", "", "comma-separated hard-faulted bank controllers, flat channel*banks+bank (degraded mode)")
		watchdog  = flag.Uint64("watchdog", 0, "forward-progress watchdog window in cycles (0: off)")

		cellTimeout  = flag.Duration("cell-timeout", 0, "wall-clock deadline per measured point, above the simulated-cycle watchdog (0: none)")
		retries      = flag.Int("retries", 0, "re-attempts per failing point before giving up (fresh systems each attempt)")
		retryBackoff = flag.Duration("retry-backoff", 0, "sleep before the first retry, doubled each further attempt")
	)
	flag.Parse()

	plan, err := faultPlan(*faultSeed, *faultRate, *deadBanks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pvasim: %v\n", err)
		os.Exit(2)
	}

	kinds := map[string]pva.SystemKind{
		"pva-sdram":        pva.PVASDRAM,
		"cacheline-serial": pva.CacheLineSerial,
		"gathering-serial": pva.GatheringSerial,
		"pva-sram":         pva.PVASRAM,
	}
	var run []pva.SystemKind
	if *system == "all" {
		run = []pva.SystemKind{pva.PVASDRAM, pva.CacheLineSerial, pva.GatheringSerial, pva.PVASRAM}
	} else {
		k, ok := kinds[*system]
		if !ok {
			fmt.Fprintf(os.Stderr, "pvasim: unknown system %q\n", *system)
			os.Exit(2)
		}
		run = []pva.SystemKind{k}
	}

	p := pva.PaperParams(uint32(*stride), *align)
	p.Elements = uint32(*elements)
	if err := p.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "pvasim: %v\n", err)
		os.Exit(2)
	}
	opts := pva.SweepOptions{
		Channels:     uint32(*channels),
		AddrMap:      *addrmap,
		Fault:        plan,
		Watchdog:     *watchdog,
		Tech:         *tech,
		Subarrays:    uint32(*subarrays),
		Partitions:   uint32(*partitions),
		CellTimeout:  *cellTimeout,
		Retries:      *retries,
		RetryBackoff: *retryBackoff,
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "pvasim: %v\n", err)
		os.Exit(2)
	}

	points := make([]pva.SweepPoint, 0, len(run))
	for _, kind := range run {
		pt, err := pva.RunKernelWithOptions(kind, *kernel, p, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pvasim: %v\n", err)
			os.Exit(1)
		}
		points = append(points, pt)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(points); err != nil {
			fmt.Fprintf(os.Stderr, "pvasim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	faulty := plan.Active()
	techy := *tech != "" && *tech != "sdram"
	indexed := false
	for _, pt := range points {
		if pt.Stats.IndexedElements > 0 {
			indexed = true
		}
	}
	fmt.Fprintf(w, "system\tcycles\tsdram rd\tsdram wr\tactivates\tprecharges\trow hits\tbus busy\tturnarounds")
	if techy {
		fmt.Fprintf(w, "\trow conf\tsub hits\tpart stalls\trd lat\twr lat")
	}
	if indexed {
		fmt.Fprintf(w, "\tidx bus\tidx elems\tclaim imb")
	}
	if faulty {
		fmt.Fprintf(w, "\tecc corr\tecc uncorr\tnacks\tdegraded")
	}
	fmt.Fprintln(w)
	base := points[0].Cycles
	for _, pt := range points {
		fmt.Fprintf(w, "%s\t%d (%.0f%%)\t%d\t%d\t%d\t%d\t%d\t%d\t%d",
			pt.System, pt.Cycles, 100*float64(pt.Cycles)/float64(base),
			pt.Stats.SDRAMReads, pt.Stats.SDRAMWrites,
			pt.Stats.Activates, pt.Stats.Precharges, pt.Stats.RowHits,
			pt.Stats.BusBusyCycles, pt.Stats.TurnaroundCycles)
		if techy {
			fmt.Fprintf(w, "\t%d\t%d\t%d\t%d\t%d", pt.Stats.RowConflicts,
				pt.Stats.SubarrayHits, pt.Stats.PartitionStalls,
				pt.Stats.ReadLatencyCycles, pt.Stats.WriteLatencyCycles)
		}
		if indexed {
			imb := 0.0
			if pt.Stats.IndexedElements > 0 {
				imb = float64(pt.Stats.IndexedMaxBankClaim) / float64(pt.Stats.IndexedElements)
			}
			fmt.Fprintf(w, "\t%d\t%d\t%.3f", pt.Stats.IndexBusCycles,
				pt.Stats.IndexedElements, imb)
		}
		if faulty {
			fmt.Fprintf(w, "\t%d\t%d\t%d\t%d", pt.Stats.CorrectedECC,
				pt.Stats.UncorrectedECC, pt.Stats.BusNACKs, pt.Stats.DegradedElements)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

// faultPlan maps the CLI's single base rate onto the plan's three rates:
// single-bit flips at p, double-bit flips at p/100, broadcast drops at
// p/10 — the relative frequencies real parts exhibit.
func faultPlan(seed uint64, rate float64, dead string) (pva.FaultPlan, error) {
	plan := pva.FaultPlan{
		Seed:           seed,
		BitFlipRate:    rate,
		DoubleFlipRate: rate / 100,
		DropRate:       rate / 10,
	}
	if dead != "" {
		for _, f := range strings.Split(dead, ",") {
			n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 32)
			if err != nil {
				return pva.FaultPlan{}, fmt.Errorf("bad dead bank %q", f)
			}
			plan.DeadBanks = append(plan.DeadBanks, uint32(n))
		}
	}
	return plan, nil
}
