package pvaunit

import (
	"pva/internal/addrmap"
	"pva/internal/memsys"
)

// claimList is one transaction's pre-claimed element lists: the channel
// dispatcher's side of the FirstHit Predict snoop for commands without
// closed-form hit math (indexed commands, and strided commands under a
// decoder that is not addrmap.HitMath). build decodes every element of
// the command once and counting-sorts the element indices by flat key
// channel*M + bank, so each bank controller receives its own elements,
// ascending, in one slice, and no controller decodes an address to
// decide ownership.
//
// The front end keeps one claimList per transaction ID, not per
// command, so the storage is bounded by bus.MaxTransactions and reused
// across commands. A list is built when its command claims the ID and
// stays valid until the ID is released; the front-end step is the only
// writer, and the bank controllers only read it.
type claimList struct {
	elems []uint32 // element indices grouped by key, ascending within a key
	end   []uint32 // per key: one past the key's last entry in elems
	keys  []uint32 // build scratch: each element's key
}

// preClaimed reports whether command c reaches the bank controllers as
// pre-claimed element lists: indexed commands always do, and strided
// ones unless the decoder has closed-form hit math for the controllers'
// stride PLA.
func (fe *frontEnd) preClaimed(c *memsys.VectorCmd) bool {
	return c.Indexed() || !fe.closedForm
}

// build fills the list with command c's elements under decoder dec.
func (cl *claimList) build(dec addrmap.Decoder, c *memsys.VectorCmd) {
	n := int(c.V.Length)
	M := dec.Banks()
	if nk := int(dec.Channels() * M); len(cl.end) != nk {
		cl.end = make([]uint32, nk)
	}
	if cap(cl.elems) < n {
		cl.elems = make([]uint32, n)
		cl.keys = make([]uint32, n)
	}
	cl.elems, cl.keys = cl.elems[:n], cl.keys[:n]
	end := cl.end
	clear(end)
	for e := range cl.keys {
		co := dec.Decode(c.Addr(uint32(e)))
		k := co.Channel*M + co.Bank
		cl.keys[e] = k
		end[k]++
	}
	var sum uint32
	for k, cnt := range end {
		end[k] = sum // the key's first slot; placement advances it to its end
		sum += cnt
	}
	for e, k := range cl.keys {
		cl.elems[end[k]] = uint32(e)
		end[k]++
	}
}

// bank returns the elements of key k (channel*M + bank), ascending. The
// slice is never nil, so an empty list still reads as pre-claimed.
func (cl *claimList) bank(k int) []uint32 {
	lo := uint32(0)
	if k > 0 {
		lo = cl.end[k-1]
	}
	return cl.elems[lo:cl.end[k]:cl.end[k]]
}
