// Tracing-facing API: cycle-by-cycle event capture for timelines and
// invariant analysis.

package pva

import (
	"io"

	"pva/internal/pvaunit"
	"pva/internal/trace"
)

// TraceEvent is one timestamped simulator event (SDRAM command, bus
// tenure, staging, transaction completion).
type TraceEvent = trace.Event

// TraceLog records events in memory.
type TraceLog = trace.Log

// Event kinds, re-exported for filtering.
const (
	EvBroadcast   = trace.Broadcast
	EvActivate    = trace.Activate
	EvPrecharge   = trace.Precharge
	EvReadCmd     = trace.ReadCmd
	EvWriteCmd    = trace.WriteCmd
	EvStageRead   = trace.StageRead
	EvStageWrite  = trace.StageWrite
	EvTxnComplete = trace.TxnComplete
)

// NewTracedSystem returns a PVA system that records every event into
// the returned log.
func NewTracedSystem(c Config) (System, *TraceLog, error) {
	log := &TraceLog{}
	cfg, err := c.toInternal()
	if err != nil {
		return nil, nil, err
	}
	cfg.Observer = log.Record
	sys, err := pvaunit.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return sys, log, nil
}

// DumpTrace writes a human-readable timeline of a log.
func DumpTrace(w io.Writer, log *TraceLog) { log.Dump(w) }
