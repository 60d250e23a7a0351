// Command sweep regenerates the paper's evaluation: the full
// kernel x stride x alignment x system cross product (Section 6.2's 240
// points per system) and the text form of every figure plus the
// headline speedup ratios. Channel counts and pva-sdram device back
// ends are two more axes of the same grid; a grid over several of
// either prints its channel-scaling or back-end table instead.
//
// Usage:
//
//	sweep                 # everything (Figures 7-11 + headlines)
//	sweep -kernels copy,scale -verify
//	sweep -elements 256   # faster, shorter vectors
//	sweep -workers 1      # force the serial engine (0: one per CPU)
//	sweep -json           # raw measured points as JSON
//	sweep -channels 1,2,4 # channel-scaling table instead of figures
//	sweep -tech sdram,salp-2,salp-4,salp-8,pcm-4p  # back-end table
//	sweep -tech salp-4    # the figures on one back end
//	sweep -autotune       # search a tuned address decoder per kernel
//	sweep -autotune -seed 7 -restarts 8 -survivors 6
//	sweep -journal dir    # crash-safe sweep: journal results, resume on rerun
//	sweep -isolate        # quarantine failing cells, finish the rest
//	sweep -cell-timeout 30s -retries 2 -retry-backoff 100ms
//	sweep -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -autotune searches one channel of the paper's SDRAM machine and reads
// only -kernels, -elements, -workers, -json, -seed, -restarts,
// -survivors and the profile flags; any other set flag, or a search flag
// without -autotune, is a usage error.
//
// Exit status: 0 on success, 1 on a sweep error, 2 on a usage or
// configuration error, 3 on partial success (some cells quarantined;
// the completed grid is still emitted and every failing cell is named
// on standard error).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"pva"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kernelsFlag  = fs.String("kernels", "", "comma-separated kernel subset (default: all)")
		elements     = fs.Uint("elements", 1024, "elements per application vector")
		verify       = fs.Bool("verify", false, "replay every point against the functional reference")
		workers      = fs.Int("workers", 0, "sweep worker goroutines (0: one per CPU, 1: serial)")
		addrmap      = fs.String("addrmap", "word", "address decoder: word, line, xor, tuned:<mask,mask,...>")
		channelsFlag = fs.String("channels", "", "comma-separated channel counts (e.g. 1,2,4); several print the channel-scaling table (default 1)")
		techFlag     = fs.String("tech", "", "comma-separated pva-sdram device back ends: sdram, salp-<subarrays>, pcm-<partitions>p (e.g. sdram,salp-4,pcm-4p); several print the back-end table (default sdram)")
		jsonOut      = fs.Bool("json", false, "emit measured points as JSON instead of the figures")

		autotuneFlag = fs.Bool("autotune", false, "search a conflict-minimal tuned address decoder per kernel and report it against the fixed decoders")
		seed         = fs.Uint64("seed", 0, "autotune search seed (equal seeds: bit-identical results)")
		restarts     = fs.Int("restarts", 0, "autotune random restarts beside the word/xor landmarks (0: default)")
		survivors    = fs.Int("survivors", 0, "autotune candidates promoted to full simulation (0: default)")

		journalDir   = fs.String("journal", "", "crash-safe sweep: append results to <dir>/sweep.journal and resume completed cells on rerun (implies -isolate)")
		isolate      = fs.Bool("isolate", false, "quarantine failing cells instead of aborting; the rest of the grid completes")
		cellTimeout  = fs.Duration("cell-timeout", 0, "per-cell wall-clock deadline, above the simulated-cycle watchdog (0: none)")
		retries      = fs.Int("retries", 0, "re-attempts per failing cell before quarantine (fresh systems each attempt)")
		retryBackoff = fs.Duration("retry-backoff", 0, "sleep before the first retry, doubled each further attempt")

		faultSeed = fs.Uint64("fault-seed", 0, "seed driving every fault-injection decision")
		faultRate = fs.Float64("fault-rate", 0, "base fault rate p: single-bit flip rate p, double-bit p/100, broadcast drop p/10 (PVA systems only)")
		watchdog  = fs.Uint64("watchdog", 0, "forward-progress watchdog window in cycles (0: off)")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var unread []string // set flags the selected mode does not read
	fs.Visit(func(f *flag.Flag) {
		if searchOnly, read := autotuneReads[f.Name]; *autotuneFlag && !read || !*autotuneFlag && searchOnly {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		fmt.Fprintf(stderr, "sweep: %s not read %s -autotune\n", strings.Join(unread, ", "),
			map[bool]string{true: "under", false: "without"}[*autotuneFlag])
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "sweep: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "sweep: %v\n", err)
			}
		}()
	}

	var grid pva.Grid
	if *kernelsFlag != "" {
		grid.Kernels = strings.Split(*kernelsFlag, ",")
	}
	if *channelsFlag != "" {
		channels, err := parseChannels(*channelsFlag)
		if err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 2
		}
		grid.Channels = channels
	}
	if *techFlag != "" {
		grid.Techs = strings.Split(*techFlag, ",")
	}
	opts := pva.SweepOptions{
		Elements: uint32(*elements),
		Verify:   *verify,
		Workers:  *workers,
		AddrMap:  *addrmap,
		Fault: pva.FaultPlan{
			Seed:           *faultSeed,
			BitFlipRate:    *faultRate,
			DoubleFlipRate: *faultRate / 100,
			DropRate:       *faultRate / 10,
		},
		Watchdog:     *watchdog,
		CellTimeout:  *cellTimeout,
		Retries:      *retries,
		RetryBackoff: *retryBackoff,
	}
	if err := pva.ValidateGrid(grid, opts); err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 2
	}

	start := time.Now()
	if *autotuneFlag {
		points, err := pva.Autotune(grid.Kernels, nil, uint32(*elements), pva.AutotuneOptions{
			Seed:      *seed,
			Restarts:  *restarts,
			Survivors: *survivors,
			Workers:   *workers,
		})
		if err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 1
		}
		if *jsonOut {
			return emitJSON(stdout, stderr, points)
		}
		pva.RenderAutotune(stdout, points)
		fmt.Fprintf(stdout, "%d kernels in %v\n", len(points), time.Since(start).Round(time.Millisecond))
		return 0
	}
	if *journalDir != "" || *isolate {
		out, err := pva.ResumableSweep(grid, *journalDir, opts)
		if err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 1
		}
		points := out.Completed()
		code := 0
		if len(out.Failures) > 0 {
			// Partial success: name every quarantined cell on stderr, then
			// still emit the completed grid.
			fmt.Fprintf(stderr, "sweep: %d of %d cells quarantined:\n", len(out.Failures), len(out.Points))
			for _, f := range out.Failures {
				fmt.Fprintf(stderr, "  %s\n", f)
			}
			code = 3
		}
		if *jsonOut {
			if rc := emitJSON(stdout, stderr, points); rc != 0 {
				return rc
			}
			return code
		}
		pva.Figures(stdout, points)
		fmt.Fprintf(stdout, "%d of %d points in %v (%d resumed from journal)\n",
			len(points), len(out.Points), time.Since(start).Round(time.Millisecond), out.Resumed)
		return code
	}

	points, err := pva.SweepWithOptions(grid, opts)
	if err != nil {
		// The harness wraps every failure with its cell coordinates
		// (kernel, stride, alignment, system, channels, back end), so the
		// message printed here names the failing cell.
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 1
	}
	if *jsonOut {
		return emitJSON(stdout, stderr, points)
	}
	pva.Figures(stdout, points)
	fmt.Fprintf(stdout, "%d points in %v%s\n", len(points), time.Since(start).Round(time.Millisecond),
		map[bool]string{true: " (verified against reference)", false: ""}[*verify])
	return 0
}

// autotuneReads maps each flag an -autotune run reads to whether only
// the search reads it.
var autotuneReads = map[string]bool{"seed": true, "restarts": true, "survivors": true, "autotune": false,
	"kernels": false, "elements": false, "workers": false, "json": false, "cpuprofile": false, "memprofile": false}

func parseChannels(s string) ([]uint32, error) {
	var out []uint32
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 32)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("bad channel count %q", f)
		}
		out = append(out, uint32(n))
	}
	return out, nil
}

func emitJSON(stdout, stderr io.Writer, v any) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(stderr, "sweep: %v\n", err)
		return 1
	}
	return 0
}
