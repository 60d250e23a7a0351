// Reference is the functional (zero-time) executor: it applies a trace
// to a Store in program order and records the data every read should
// gather. Every cycle-level system is validated against it.

package memsys

import "fmt"

// Reference executes traces functionally.
type Reference struct {
	store *Store
}

// NewReference returns a functional executor over a fresh store.
func NewReference() *Reference { return &Reference{store: NewStore()} }

// Reset rewinds the reference's store to cold, recycling its pages, so
// one Reference can check trace after trace without reallocating.
func (r *Reference) Reset() { r.store.Restore(nil) }

// Name implements System.
func (r *Reference) Name() string { return "reference" }

// Peek implements System.
func (r *Reference) Peek(a uint32) uint32 { return r.store.Read(a) }

// Run implements System; Cycles is always zero.
func (r *Reference) Run(t Trace) (Result, error) {
	if err := t.Validate(); err != nil {
		return Result{}, err
	}
	lines := make([][]uint32, len(t.Cmds))
	res := Result{ReadData: make([][]uint32, len(t.Cmds))}
	for i, c := range t.Cmds {
		switch c.Op {
		case Read:
			if c.Indexed() {
				lines[i] = r.store.GatherAt(c.V.Base, c.Idx)
			} else {
				lines[i] = r.store.Gather(c.V)
			}
			res.ReadData[i] = lines[i]
		case Write:
			data, err := WriteData(c, lines)
			if err != nil {
				return Result{}, fmt.Errorf("memsys: cmd %d: %w", i, err)
			}
			lines[i] = data
			if c.Indexed() {
				r.store.ScatterAt(c.V.Base, c.Idx, data)
			} else {
				r.store.Scatter(c.V, data)
			}
		}
	}
	return res, nil
}

// WriteData resolves the dense line a write command scatters. lines is
// indexed like the trace and holds, for every completed command, its
// line: gathered data for reads, the computed/preset line for writes.
func WriteData(c VectorCmd, lines [][]uint32) ([]uint32, error) {
	if c.Op != Write {
		return nil, fmt.Errorf("WriteData on %v command", c.Op)
	}
	if c.Compute == nil {
		if uint32(len(c.Data)) != c.V.Length {
			return nil, fmt.Errorf("preset data has %d words, want %d", len(c.Data), c.V.Length)
		}
		return c.Data, nil
	}
	deps := make([][]uint32, len(c.DependsOn))
	for j, d := range c.DependsOn {
		deps[j] = lines[d]
	}
	data := c.Compute(deps)
	if uint32(len(data)) != c.V.Length {
		return nil, fmt.Errorf("Compute returned %d words, want %d", len(data), c.V.Length)
	}
	return data, nil
}
