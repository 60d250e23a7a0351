package dramtech

import (
	"errors"
	"testing"

	"pva/internal/addr"
	"pva/internal/memsys"
)

// backendStep is one scripted action in a cycle: a command to issue,
// or, with need set, a Model.Need query for the request's row.
type backendStep struct {
	at   uint64
	req  Request
	fail string // "": the command must be accepted; else the violation kind it must fail with
	need bool   // query Need instead of issuing
	want Need   // Need's expected answer
}

// TestBackends drives each back end through Device.Issue with a
// scripted command stream and checks every acceptance, rejection kind,
// read delivery cycle and final counter.
//
// The SALP-4 and PCM-4p models fold rows onto units by XOR: rows 0 and 5
// share unit 0, rows 1 and 4 share unit 1.
func TestBackends(t *testing.T) {
	salp := Spec{Backend: BackendSALP, Units: 4}
	pcm, err := SpecFor("pcm", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		spec      Spec
		timing    Timing
		steps     []backendStep
		delivered map[uint64]uint64 // delivery cycle -> read tag
		stats     Stats
	}{
		{
			// Activates to two subarrays of one internal bank overlap,
			// one cycle apart; every access with the sibling open is a
			// subarray hit; a second row for an open subarray must wait
			// for a precharge.
			name: "salp-4", spec: salp, timing: PaperTiming(),
			steps: []backendStep{
				{at: 0, req: Request{Cmd: Activate, Row: 0}},
				{at: 1, req: Request{Cmd: Activate, Row: 1}},
				{at: 2, req: Request{Cmd: Read, Row: 0, Col: 3, Tag: 1}},
				{at: 3, req: Request{Cmd: Read, Row: 1, Col: 4, Tag: 2}},
				{at: 4, req: Request{Cmd: Activate, Row: 5}, fail: "state"},
				{at: 4, req: Request{Row: 5}, need: true, want: NeedPrecharge},
				{at: 4, req: Request{Row: 4}, need: true, want: NeedPrecharge},
				{at: 4, req: Request{Row: 1}, need: true, want: NeedAccess},
				{at: 4, req: Request{IBank: 1, Row: 1}, need: true, want: NeedActivate},
				{at: 4, req: Request{Cmd: Read, Row: 0, Col: 5, Tag: 3}},
			},
			delivered: map[uint64]uint64{4: 1, 5: 2, 6: 3},
			stats:     Stats{Activates: 2, Reads: 3, RowHits: 1, SubarrayHits: 3, ReadLatencyCycles: 6},
		},
		{
			// A WRITE keeps its partition busy for WriteBusy cycles while
			// the sibling partition serves at once; blocked Need queries
			// count one stall per unit per cycle; a precharge naming the
			// open row is no conflict, an eviction is.
			name: "pcm-4p", spec: pcm, timing: PCMTiming(),
			steps: []backendStep{
				{at: 0, req: Request{Cmd: Activate, Row: 0}},
				{at: 1, req: Request{Cmd: Activate, Row: 1}},
				{at: 4, req: Request{Cmd: Write, Row: 0, Col: 0, Data: 0xfeed}},
				{at: 5, req: Request{Cmd: Read, Row: 0, Col: 1}, fail: "timing"},
				{at: 5, req: Request{Row: 0}, need: true, want: NeedWait},
				{at: 5, req: Request{Row: 0}, need: true, want: NeedWait},
				{at: 5, req: Request{Cmd: Read, Row: 1, Col: 1, Tag: 7}},
				{at: 6, req: Request{Row: 5}, need: true, want: NeedWait},
				{at: 11, req: Request{Cmd: Read, Row: 0, Col: 0}, fail: "timing"},
				{at: 12, req: Request{Row: 0}, need: true, want: NeedAccess},
				{at: 12, req: Request{Cmd: Read, Row: 0, Col: 0, Tag: 8}},
				{at: 13, req: Request{Cmd: Precharge, Row: 0}},
				{at: 14, req: Request{Cmd: Precharge, Row: 4}},
			},
			delivered: map[uint64]uint64{7: 7, 14: 8},
			stats: Stats{Activates: 2, Precharges: 2, Reads: 2, Writes: 1, RowHits: 1,
				SubarrayHits: 3, RowConflicts: 1, PartitionStalls: 2,
				ReadLatencyCycles: 4, WriteLatencyCycles: 9},
		},
		{
			// No rows: every internal bank serves at once, data arrives
			// one cycle after the READ whatever CL the caller passed, row
			// commands are protocol breaches, and auto-precharge riders
			// change nothing.
			name: "sram", spec: Spec{Backend: BackendSRAM}, timing: PaperTiming(),
			steps: []backendStep{
				{at: 0, req: Request{Cmd: Read, IBank: 0, Row: 0, Col: 5, Tag: 1}},
				{at: 1, req: Request{Cmd: Read, IBank: 3, Row: 7, Col: 2, Tag: 2, Auto: true}},
				{at: 2, req: Request{Cmd: Write, IBank: 1, Row: 2, Col: 3, Data: 77, Auto: true}},
				{at: 3, req: Request{Cmd: Read, IBank: 2, Row: 9, Col: 1, Tag: 3}},
				{at: 4, req: Request{Cmd: Activate, IBank: 0, Row: 0}, fail: "protocol"},
				{at: 4, req: Request{Cmd: Precharge, IBank: 0, Row: 0}, fail: "protocol"},
				{at: 4, req: Request{Cmd: Refresh}, fail: "protocol"},
				{at: 4, req: Request{Cmd: Read, Row: 1 << 20}, fail: "range"},
				{at: 4, req: Request{IBank: 2, Row: 9}, need: true, want: NeedAccess},
				{at: 4, req: Request{Cmd: Read, IBank: 0, Row: 0, Col: 5, Tag: 4}},
			},
			delivered: map[uint64]uint64{1: 1, 2: 2, 4: 3, 5: 4},
			stats:     Stats{Reads: 4, Writes: 1, ReadLatencyCycles: 4, WriteLatencyCycles: 1},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			store := memsys.NewStore()
			d := NewDevice(addr.MustSDRAMGeom(4, 512, 8192), c.timing, c.spec, store, 0, 16)
			m := d.Model()
			delivered := map[uint64]uint64{}
			last := c.steps[len(c.steps)-1].at
			next := 0
			for cycle := uint64(0); cycle <= last+4; cycle++ {
				for ; next < len(c.steps) && c.steps[next].at == cycle; next++ {
					s := c.steps[next]
					if s.need {
						if got := m.Need(m.UnitIndex(s.req.IBank, s.req.Row), s.req.Row, cycle); got != s.want {
							t.Errorf("cycle %d: Need(ib %d, row %d) = %d, want %d", cycle, s.req.IBank, s.req.Row, got, s.want)
						}
						continue
					}
					err := d.Issue(s.req)
					var v *ViolationError
					switch {
					case s.fail == "" && err != nil:
						t.Errorf("cycle %d: %v rejected: %v", cycle, s.req.Cmd, err)
					case s.fail != "" && (!errors.As(err, &v) || v.Kind.String() != s.fail):
						t.Errorf("cycle %d: %v = %v, want a %s violation", cycle, s.req.Cmd, err, s.fail)
					}
				}
				for _, r := range d.Tick() {
					delivered[cycle] = r.Tag
				}
			}
			if len(delivered) != len(c.delivered) {
				t.Errorf("reads delivered %v, want %v", delivered, c.delivered)
			}
			for at, tag := range c.delivered {
				if got, ok := delivered[at]; !ok || got != tag {
					t.Errorf("cycle %d: delivered tag %d (%v), want %d", at, got, ok, tag)
				}
			}
			if got := d.Stats(); got != c.stats {
				t.Errorf("stats\n got %+v\nwant %+v", got, c.stats)
			}
		})
	}
}
