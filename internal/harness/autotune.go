// The address-map autotuning experiment: per kernel, search the
// XOR-hash decoder space for the kernel's multi-stride workload and
// report the tuned decoder's total cycles next to the three fixed
// decoders on the identical workload. The interesting rows are the
// kernels whose stride mix makes neither the word interleave nor the
// classic XOR hash optimal — there the tuner finds a compromise hash no
// fixed decoder provides.

package harness

import (
	"fmt"
	"io"

	"pva/internal/autotune"
)

// AutotunePoint is one kernel's autotuning outcome.
type AutotunePoint struct {
	Kernel string `json:"kernel"`
	// Spec is the winning decoder, ready for -addrmap / Config.AddrMap.
	Spec string `json:"spec"`
	// Tuned is the winner's full-simulation total over the workload;
	// Word/Line/Xor are the fixed decoders' totals on the same workload.
	Tuned uint64 `json:"tuned"`
	Word  uint64 `json:"word"`
	Line  uint64 `json:"line"`
	Xor   uint64 `json:"xor"`
	// BestFixed names the strongest fixed decoder; Gain is the tuned
	// winner's cycle reduction against it (0.03 = 3% fewer cycles).
	BestFixed string  `json:"best_fixed"`
	Gain      float64 `json:"gain"`
	// Ladder counters: surrogate-rung vs full-simulation evaluations.
	SurrogateEvals int `json:"surrogate_evals"`
	FullEvals      int `json:"full_evals"`
}

// Autotune searches a tuned decoder per kernel. kernelNames nil means
// all strided kernels; strides nil means the paper's; elements 0 means
// the paper's 1024. The search options' shape fields default to the
// paper machine; o.Seed fixes the whole experiment's determinism.
func Autotune(kernelNames []string, strides []uint32, elements uint32, o autotune.Options) ([]AutotunePoint, error) {
	ks, err := kernelsByName(kernelNames)
	if err != nil {
		return nil, err
	}
	if strides == nil {
		strides = PaperStrides()
	}

	out := make([]AutotunePoint, 0, len(ks))
	for _, k := range ks {
		w := autotune.KernelWorkload(k, strides, 0, elements)
		res, err := autotune.Search(w, o)
		if err != nil {
			return nil, fmt.Errorf("harness: autotune %s: %w", k.Name, err)
		}
		bestName, best := res.BestFixed()
		p := AutotunePoint{
			Kernel:         k.Name,
			Spec:           res.Best.Spec,
			Tuned:          res.Best.Cycles,
			Word:           res.Baselines["word"],
			Line:           res.Baselines["line"],
			Xor:            res.Baselines["xor"],
			BestFixed:      bestName,
			SurrogateEvals: res.SurrogateEvals,
			FullEvals:      res.FullEvals,
		}
		if best != 0 {
			p.Gain = 1 - float64(p.Tuned)/float64(best)
		}
		out = append(out, p)
	}
	return out, nil
}

// RenderAutotune writes the autotuning table: per kernel, the tuned
// decoder's workload total against the fixed decoders, with the gain
// over the strongest fixed decoder.
func RenderAutotune(w io.Writer, points []AutotunePoint) {
	if len(points) == 0 {
		return
	}
	fmt.Fprintln(w, "address-map autotuning — workload cycles per decoder (gain vs best fixed)")
	fmt.Fprintf(w, "%10s %10s %10s %10s %10s %7s  %s\n",
		"kernel", "tuned", "word", "line", "xor", "gain", "spec")
	for _, p := range points {
		fmt.Fprintf(w, "%10s %10d %10d %10d %10d %6.2f%%  %s\n",
			p.Kernel, p.Tuned, p.Word, p.Line, p.Xor, p.Gain*100, p.Spec)
	}
	fmt.Fprintln(w)
}
