// Brute-force oracles for the hit functions. These expand vectors element
// by element — exactly the serial expansion the PVA exists to avoid — and
// are used by the test suite to validate the closed forms on exhaustive
// small spaces.

package core

// BruteFirstHitWord returns the least i < v.Length whose element lands in
// bank b of a word-interleaved geometry, by serial expansion.
func BruteFirstHitWord(g Geometry, v Vector, b uint32) uint32 {
	for i := uint32(0); i < v.Length; i++ {
		if g.DecodeBank(v.Addr(i)) == b {
			return i
		}
	}
	return NoHit
}

// BruteSubVectorWord expands the whole vector and tallies bank b's
// subvector; the oracle for Geometry.SubVector.
func BruteSubVectorWord(g Geometry, v Vector, b uint32) Hit {
	h := Hit{First: NoHit}
	var prev uint32
	for i := uint32(0); i < v.Length; i++ {
		if g.DecodeBank(v.Addr(i)) != b {
			continue
		}
		if h.Count == 0 {
			h.First = i
		} else if h.Count == 1 {
			h.Delta = i - prev
		}
		prev = i
		h.Count++
	}
	if h.Count <= 1 {
		// Delta is unobservable from a single hit; report the geometry's
		// answer so comparisons remain meaningful.
		h.Delta = g.NextHit(v.Stride)
	}
	return h
}
