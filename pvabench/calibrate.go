package main

import (
	"slices"
	"time"
)

// calibrationRef is the calibration loop's time, in seconds, on the
// machine the bounds in BENCHMARK.json were set on: a shared two-vCPU
// Xeon VM at 2.1 GHz, in one of its faster minutes. Host times are
// reported at that speed.
const calibrationRef = 0.0125

// calKeys is the size of the calibration loop's key space. Its map,
// walk and sort buffer hold about 2 MB, more than a core's L2 cache, as
// a pass's working set does.
const calKeys = 1 << 16

// calState is the calibration loop's working set. It is allocated once,
// so that the loop allocates nothing and the heap a pass leaves behind
// cannot change the loop's time.
var calState struct {
	table  map[uint64]uint64
	next   []int32 // a single cycle through every key
	sorted []uint64
	sink   uint64
}

// calibrate runs a fixed loop of hashing, map updates, a dependent walk
// and a sort, which shares no code with the program under test, and
// returns its wall time in seconds.
//
// A shared VM runs everything slower for minutes at a time: the same
// pass took 0.45 s in one minute and 0.98 s a few minutes later, in CPU
// time as in wall time, and the loop slowed with it. The end-to-end host
// times are therefore scaled by calibrationRef over the loop's time
// around each measurement, which leaves a change in the program's own
// speed in them and takes the machine's out.
func calibrate() float64 {
	s := &calState
	if s.table == nil {
		s.table = make(map[uint64]uint64, calKeys)
		s.next = make([]int32, calKeys)
		s.sorted = make([]uint64, 0, calKeys)
		// Sattolo's shuffle of the identity is one cycle through every key.
		for i := range s.next {
			s.next[i] = int32(i)
		}
		x := uint64(7)
		for i := calKeys - 1; i > 0; i-- {
			x = x*6364136223846793005 + 1442695040888963407
			j := int(x>>33) % i
			s.next[i], s.next[j] = s.next[j], s.next[i]
		}
	}
	t0 := time.Now()
	clear(s.table)
	x, k := uint64(1), int32(0)
	for i := 0; i < 4*calKeys; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s.table[x>>48] += x
		k = s.next[k]
		s.sink += uint64(k)
	}
	s.sorted = s.sorted[:0]
	for key, v := range s.table {
		s.sorted = append(s.sorted, key^v)
	}
	slices.Sort(s.sorted)
	s.sink += s.sorted[len(s.sorted)/2]
	return time.Since(t0).Seconds()
}
