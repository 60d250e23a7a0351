// Crash-safe sweep execution: per-cell failure isolation (wall-clock
// deadlines layered on the simulated-cycle watchdog, bounded retry with
// backoff, quarantine with an error manifest) and the journaled
// resumable sweep built on internal/ckptio's durable checkpoints and
// append-only result journal.
//
// The resume protocol: a journaled sweep directory holds sweep.journal
// (a header binding the journal to the sweep's exact configuration and
// grid, followed by one checksummed record per cell outcome). Every
// completed cell is appended and fsynced before it counts, so a SIGKILL
// can lose at most in-flight cells. On restart with the same flags the
// journal header's config hash must match, completed cells are replayed
// from their records, in-flight cells re-run, and the merged output is
// bit-identical to an uninterrupted run: replay is byte-exact JSON of
// the Point, and re-run cells run on cold systems, built or rewound
// to their post-construction checkpoint, as in an uninterrupted sweep.

package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pva/internal/addrmap"
	"pva/internal/ckptio"
	"pva/internal/pvaunit"
)

// Typed failure-isolation errors; match with errors.Is.
var (
	// ErrCellTimeout: a cell exceeded the runner's per-cell wall-clock
	// deadline (Runner.CellTimeout).
	ErrCellTimeout = errors.New("harness: cell exceeded its wall-clock deadline")
	// ErrJournalMismatch: the journal directory belongs to a sweep with
	// different flags or a different grid; resuming it would merge
	// incompatible results.
	ErrJournalMismatch = errors.New("harness: journal does not match this sweep configuration")

	// errAborted simulates a crash at a cell boundary: the journalSink
	// stops the sweep after a configured number of durable appends. The
	// kill-and-resume tests use it as an in-process SIGKILL stand-in.
	errAborted = errors.New("harness: sweep aborted at a journaled cell boundary")
)

// CellFailure names one quarantined cell of a fault-isolated sweep.
type CellFailure struct {
	Index     int        `json:"index"`
	Kernel    string     `json:"kernel"`
	Stride    uint32     `json:"stride"`
	Alignment int        `json:"alignment"`
	System    SystemKind `json:"system"`
	Channels  uint32     `json:"channels"`
	// Tech labels a pva-sdram cell's back end, as Point.Tech does.
	Tech     string `json:"tech,omitempty"`
	Attempts int    `json:"attempts"`
	Err      string `json:"error"`
}

// String renders the failure for manifests: coordinates first, so a
// human (or a grep) can find the poisoned cell.
func (f CellFailure) String() string {
	return fmt.Sprintf("%s (after %d attempts): %s",
		cellName(f.Kernel, f.Stride, f.Alignment, f.System, f.Channels, f.Tech), f.Attempts, f.Err)
}

// Outcome is a fault-isolated sweep's result: the full grid in plan
// order with per-cell completion, the quarantine manifest, and how many
// cells were replayed from a journal rather than run.
type Outcome struct {
	// Points holds every planned cell in plan order; entries whose Done
	// flag is false are zero-valued placeholders for quarantined cells.
	Points []Point
	// Done marks which cells completed (run or replayed).
	Done []bool
	// Failures is the error manifest: every quarantined cell, in plan
	// order, with the error that exhausted its attempts.
	Failures []CellFailure
	// Resumed counts cells replayed from the journal.
	Resumed int
}

// Completed returns only the completed cells, in plan order — the grid a
// partial sweep can still report.
func (o *Outcome) Completed() []Point {
	pts := make([]Point, 0, len(o.Points))
	for i, p := range o.Points {
		if o.Done[i] {
			pts = append(pts, p)
		}
	}
	return pts
}

// Err summarizes the quarantine manifest as an error naming every failed
// cell, or nil when the grid completed fully.
func (o *Outcome) Err() error {
	if len(o.Failures) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "harness: %d of %d cells quarantined:", len(o.Failures), len(o.Points))
	for _, f := range o.Failures {
		b.WriteString("\n  ")
		b.WriteString(f.String())
	}
	return errors.New(b.String())
}

func sortFailures(fs []CellFailure) {
	sort.Slice(fs, func(i, j int) bool { return fs[i].Index < fs[j].Index })
}

// guardedRunner wraps a cellRunner with the runner's failure policy:
// a per-cell wall-clock deadline layered above the simulated-cycle
// watchdog, and bounded retry with exponential backoff, each retry on
// freshly constructed systems (a failure may have poisoned warm state).
type guardedRunner struct {
	r     Runner
	cells *cellRunner
}

func newGuardedRunner(r Runner) *guardedRunner {
	return &guardedRunner{r: r, cells: &cellRunner{r: r}}
}

// discard drops the warm systems; the next cell reconstructs from
// scratch. Called after any failure, and after a timeout (when the
// abandoned goroutine may still be ticking the old systems).
func (g *guardedRunner) discard() { g.cells = &cellRunner{r: g.r} }

// run measures one cell under the failure policy and reports how many
// attempts it consumed.
func (g *guardedRunner) run(j job) (Point, int, error) {
	attempts := 1 + g.r.Retries
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 && g.r.RetryBackoff > 0 {
			time.Sleep(g.r.RetryBackoff << (a - 1))
		}
		p, err := g.runOnce(j)
		if err == nil {
			return p, a + 1, nil
		}
		lastErr = err
		g.discard()
	}
	return Point{}, attempts, lastErr
}

// runOnce measures one attempt, bounded by the per-cell deadline when
// one is configured. On timeout the attempt's goroutine is abandoned —
// the simulator's MaxCycles backstop bounds how long it can linger — and
// its systems are discarded rather than reused.
func (g *guardedRunner) runOnce(j job) (Point, error) {
	if g.r.CellTimeout <= 0 {
		return g.cells.runPointSafe(j)
	}
	type res struct {
		p   Point
		err error
	}
	ch := make(chan res, 1)
	cells := g.cells
	go func() {
		p, err := cells.runPointSafe(j)
		ch <- res{p, err}
	}()
	timer := time.NewTimer(g.r.CellTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.p, r.err
	case <-timer.C:
		g.discard()
		return Point{}, fmt.Errorf("harness: %v: %w (%v)", j, ErrCellTimeout, g.r.CellTimeout)
	}
}

// Journal record kinds (the ckptio record namespace of the sweep
// journal). Payloads are JSON: integers and strings only, so replay is
// byte-exact for every Point field.
const (
	recCellDone    = 1
	recCellFailure = 2
)

// cellDoneRec is the journal payload of one completed cell.
type cellDoneRec struct {
	Index int   `json:"index"`
	Point Point `json:"point"`
}

// journalSink serializes durable appends from concurrent workers and
// hosts the crash stand-in used by the kill-and-resume tests.
type journalSink struct {
	mu         sync.Mutex
	j          *ckptio.Journal
	appends    int
	abortAfter int // 0: never abort
	aborted    atomic.Bool
}

func (s *journalSink) append(kind uint8, v any) error {
	if s == nil {
		return nil
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("harness: journal encode: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted.Load() {
		return errAborted
	}
	if err := s.j.Append(kind, payload); err != nil {
		return err
	}
	s.appends++
	if s.abortAfter > 0 && s.appends >= s.abortAfter {
		// The record just written is durable — exactly the state a
		// SIGKILL immediately after the fsync would leave.
		s.aborted.Store(true)
		return errAborted
	}
	return nil
}

// JournalConfig configures a resumable sweep's durability.
type JournalConfig struct {
	// Dir is the journal directory (created if missing). Empty runs the
	// fault-isolated sweep without any persistence.
	Dir string
	// NoSync skips the per-record fsync (tests; see ckptio.Journal).
	NoSync bool

	// abortAfter, when positive, aborts the sweep with an error after
	// that many durable appends — the tests' deterministic SIGKILL
	// stand-in, always landing exactly at a cell boundary.
	abortAfter int
}

// configKey is the canonical description of everything that determines a
// sweep's results: the result-affecting runner fields and the exact
// planned grid, each cell with its machine and decoder. Worker counts,
// verification, and the failure policy are deliberately absent — they
// change wall clock or failure handling, never results, so a journal
// written at -workers 8 resumes fine at -workers 1.
func (r Runner) configKey(jobs []job) []string {
	parts := []string{
		"sweep-journal-v2",
		fmt.Sprintf("elements=%d", r.Elements),
		fmt.Sprintf("fault=%+v", r.Fault),
		fmt.Sprintf("watchdog=%d", r.Watchdog),
		fmt.Sprintf("cells=%d", len(jobs)),
	}
	// The decoder enters canonicalized, so two spellings of one decoder
	// ("", "word"; "tuned:4", "tuned:0x4,0,0,0") resume each other's
	// journals. Planning has already parsed it at every channel count.
	cfg := pvaunit.PaperConfig()
	decoders := map[uint32]string{}
	for _, j := range jobs {
		d, ok := decoders[j.channels]
		if !ok {
			d, _ = addrmap.Canonical(r.AddrMap, j.channels, cfg.Banks, cfg.LineWords)
			decoders[j.channels] = d
		}
		parts = append(parts, j.String()+" decoder "+d)
	}
	return parts
}

// ResumableSweep is ResumableGrid over the runner's own machine: its
// channel count and back end.
func (r Runner) ResumableSweep(kernelNames []string, strides []uint32, systems []SystemKind, workers int, jc JournalConfig) (*Outcome, error) {
	return r.ResumableGrid(Grid{Kernels: kernelNames, Strides: strides, Systems: systems}, workers, jc)
}

// ResumableGrid measures a grid's cells with per-cell failure isolation
// and, when jc.Dir is set, durable journaling: cell results are appended
// (checksummed, fsynced) as they land, and a rerun with the same flags
// replays completed cells instead of re-measuring them. Failing cells
// are retried per the runner's policy and then quarantined into the
// Outcome's manifest; the rest of the grid still completes. A journal
// written under different flags or a different grid is refused with
// ErrJournalMismatch; a corrupt journal header is a typed ckptio error.
func (r Runner) ResumableGrid(g Grid, workers int, jc JournalConfig) (*Outcome, error) {
	jobs, err := r.plan(g)
	if err != nil {
		return nil, err
	}
	rc := runConfig{isolate: true}
	if jc.Dir == "" {
		return r.runJobs(jobs, workers, rc)
	}
	if err := os.MkdirAll(jc.Dir, 0o755); err != nil {
		return nil, err
	}
	hash := ckptio.HashConfig(r.configKey(jobs)...)
	jPath := filepath.Join(jc.Dir, "sweep.journal")

	var (
		w    *ckptio.Journal
		recs []ckptio.Record
	)
	if fi, err := os.Stat(jPath); err == nil && fi.Size() > 0 {
		// Resume: bind to the existing journal, replay its records.
		var info ckptio.JournalInfo
		if w, info, recs, err = ckptio.OpenAppend(jPath); err != nil {
			return nil, err
		}
		defer w.Close()
		if info.ConfigHash != hash || int(info.CellCount) != len(jobs) {
			return nil, fmt.Errorf("%w: %s records hash %#x over %d cells; these flags plan hash %#x over %d cells",
				ErrJournalMismatch, jPath, info.ConfigHash, info.CellCount, hash, len(jobs))
		}
	} else {
		if w, err = ckptio.CreateJournal(jPath, hash, uint32(len(jobs))); err != nil {
			return nil, err
		}
		defer w.Close()
	}
	rc.replayed = make(map[int]Point)
	for _, rec := range recs {
		if rec.Kind != recCellDone {
			continue // failure records inform manifests; the cell re-runs
		}
		var cd cellDoneRec
		if err := json.Unmarshal(rec.Payload, &cd); err != nil {
			return nil, fmt.Errorf("harness: journal record: %w", err)
		}
		if cd.Index < 0 || cd.Index >= len(jobs) {
			return nil, fmt.Errorf("harness: journal record indexes cell %d of a %d-cell grid", cd.Index, len(jobs))
		}
		rc.replayed[cd.Index] = cd.Point
	}
	w.NoSync = jc.NoSync
	rc.sink = &journalSink{j: w, abortAfter: jc.abortAfter}
	return r.runJobs(jobs, workers, rc)
}
