package pva

import "pva/internal/pvaunit"

// Streaming front end: instead of handing a complete Trace to Run, a
// caller Opens a Session, Issues vector commands one at a time as they
// become known, and overlaps its own work with the simulated memory
// system, collecting completions by ticket.
type (
	// Session is a live streaming run of the PVA system: Issue admits a
	// command (applying backpressure when all eight bus transaction IDs
	// are claimed and the admission queue is full), Poll snapshots a
	// ticket without advancing the clock, Wait pumps the clock until a
	// ticket completes, Drain until everything has. A trace issued one
	// command at a time and drained takes exactly the cycles Run(Trace)
	// reports for the same trace.
	Session = pvaunit.Session
	// Ticket names an issued command, in admission order.
	Ticket = pvaunit.Ticket
	// TicketInfo is a point-in-time snapshot of one command's progress:
	// admission, issue and completion cycles, and — for completed reads
	// — the gathered line.
	TicketInfo = pvaunit.TicketInfo
)

// Open builds the PVA SDRAM system and opens a streaming Session on it
// at cycle zero.
func Open(c Config) (*Session, error) {
	cfg, err := c.toInternal()
	if err != nil {
		return nil, err
	}
	sys, err := pvaunit.New(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Open()
}

// OpenSRAM is Open for the idealized PVA SRAM variant.
func OpenSRAM(c Config) (*Session, error) {
	cfg, err := c.sramInternal()
	if err != nil {
		return nil, err
	}
	sys, err := pvaunit.New(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Open()
}
