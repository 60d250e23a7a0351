// Structured errors for the strict device checker. Every state-machine,
// timing, or refresh violation Issue detects is reported as a
// *ViolationError, so controllers and tests can classify failures with
// errors.As instead of parsing message strings — and so a violation is
// a debuggable report, never silently-returned stale data.

package dramtech

import "fmt"

// ViolationKind classifies a strict-model violation.
type ViolationKind uint8

const (
	// ViolationState: the command is illegal in the bank's current
	// state (ACT to an open bank, RD/WR to a precharged bank, ...).
	ViolationState ViolationKind = iota
	// ViolationTiming: the command arrived before a timing parameter
	// (tRCD, tRP, tRFC) elapsed.
	ViolationTiming
	// ViolationRefresh: a refresh obligation was violated — the device
	// is starved past the postponement bound, or REF was issued with
	// banks open or mid-transition.
	ViolationRefresh
	// ViolationRange: an address field (bank, row, column) is out of
	// range, or a row mismatch between scheduler intent and open row.
	ViolationRange
	// ViolationProtocol: a command-pin protocol breach (second command
	// in one cycle, row commands on the rowless SRAM device, unknown
	// command).
	ViolationProtocol
)

// String implements fmt.Stringer.
func (k ViolationKind) String() string {
	switch k {
	case ViolationState:
		return "state"
	case ViolationTiming:
		return "timing"
	case ViolationRefresh:
		return "refresh"
	case ViolationRange:
		return "range"
	case ViolationProtocol:
		return "protocol"
	default:
		return fmt.Sprintf("violation(%d)", uint8(k))
	}
}

// ViolationError reports one rejected command with enough structure to
// classify and locate it.
type ViolationError struct {
	Kind  ViolationKind
	Cmd   Cmd
	IBank uint32
	Cycle uint64
	Msg   string
}

// Error implements error.
func (e *ViolationError) Error() string {
	return fmt.Sprintf("dramtech: %s violation: %s", e.Kind, e.Msg)
}

// violation builds a *ViolationError with a formatted message.
func violation(kind ViolationKind, cmd Cmd, ibank uint32, cycle uint64, format string, args ...any) error {
	return &ViolationError{
		Kind: kind, Cmd: cmd, IBank: ibank, Cycle: cycle,
		Msg: fmt.Sprintf(format, args...),
	}
}
