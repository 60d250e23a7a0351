// Trace capture: the address-only skeleton of a kernel's trace, the
// input format of the autotuner's decode-only surrogate cost
// (internal/autotune). A captured trace keeps the per-command element
// addresses in element order and drops data, dataflow, and operation
// kind — bank-conflict structure depends on none of them.

package kernels

import "pva/internal/memsys"

// AddressTrace is a recorded address trace: per command, the word
// addresses of its elements in element order.
type AddressTrace struct {
	Name string
	Cmds [][]uint32
}

// CaptureAddresses records the element addresses of every command in a
// trace, strided and indexed alike.
func CaptureAddresses(tr memsys.Trace) AddressTrace {
	out := AddressTrace{Cmds: make([][]uint32, len(tr.Cmds))}
	for i, c := range tr.Cmds {
		as := make([]uint32, c.V.Length)
		for j := range as {
			as[j] = c.Addr(uint32(j))
		}
		out.Cmds[i] = as
	}
	return out
}

// Capture builds the kernel's trace for the given parameters and
// records its address skeleton.
func Capture(k Kernel, p Params) AddressTrace {
	t := CaptureAddresses(k.Build(p))
	t.Name = k.Name
	return t
}
