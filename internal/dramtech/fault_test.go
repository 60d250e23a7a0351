package dramtech

import (
	"errors"
	"testing"

	"pva/internal/addr"
	"pva/internal/fault"
	"pva/internal/memsys"
)

// issueRead runs ACT + READ for (row, col) on a fresh cycle-aligned
// device and collects every delivered result until the pipe drains.
func issueRead(t *testing.T, d *Device, row, col uint32, until uint64) []ReadResult {
	t.Helper()
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: row}); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	d.Tick()
	if err := d.Issue(Request{Cmd: Read, IBank: 0, Row: row, Col: col, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	var out []ReadResult
	for c := uint64(0); c < until; c++ {
		out = append(out, d.Tick()...)
	}
	return out
}

// TestViolationErrorsTyped: every strict-checker rejection is a
// *ViolationError classifiable with errors.As, with the right kind.
func TestViolationErrorsTyped(t *testing.T) {
	cases := []struct {
		name string
		kind ViolationKind
		err  func() error
	}{
		{"read closed bank", ViolationState, func() error {
			d, _ := testDevice()
			return d.Issue(Request{Cmd: Read, IBank: 0})
		}},
		{"read before tRCD", ViolationTiming, func() error {
			d, _ := testDevice()
			if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 1}); err != nil {
				return err
			}
			d.Tick()
			return d.Issue(Request{Cmd: Read, IBank: 0, Row: 1})
		}},
		{"two commands one cycle", ViolationProtocol, func() error {
			d, _ := testDevice()
			if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 1}); err != nil {
				return err
			}
			return d.Issue(Request{Cmd: Activate, IBank: 1, Row: 1})
		}},
		{"bank out of range", ViolationRange, func() error {
			d, _ := testDevice()
			return d.Issue(Request{Cmd: Activate, IBank: 99, Row: 1})
		}},
	}
	for _, c := range cases {
		err := c.err()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		var ve *ViolationError
		if !errors.As(err, &ve) {
			t.Errorf("%s: %T is not a *ViolationError (%v)", c.name, err, err)
			continue
		}
		if ve.Kind != c.kind {
			t.Errorf("%s: kind %v, want %v", c.name, ve.Kind, c.kind)
		}
	}
}

// TestECCCorrectedRead: a single-bit flip is corrected in place with no
// timing change, counted once, and delivers the true data.
func TestECCCorrectedRead(t *testing.T) {
	store := memsys.NewStore()
	geom := addr.MustSDRAMGeom(4, 512, 8192)

	clean := NewDevice(geom, PaperTiming(), Spec{}, store, 0, 16)
	want := issueRead(t, clean, 3, 4, 12)

	faulty := NewDevice(geom, PaperTiming(), Spec{}, store, 0, 16)
	faulty.SetInjector(fault.NewInjector(fault.Plan{Seed: 5, BitFlipRate: 1}))
	got := issueRead(t, faulty, 3, 4, 12)

	if len(got) != len(want) || len(got) != 1 {
		t.Fatalf("delivered %d results, clean %d", len(got), len(want))
	}
	if got[0] != want[0] {
		t.Fatalf("corrected read differs from clean: %+v vs %+v", got[0], want[0])
	}
	st := faulty.Stats()
	if st.CorrectedECC == 0 || st.UncorrectedECC != 0 || st.ECCRetries != 0 {
		t.Fatalf("stats %+v: want corrected only", st)
	}
}

// TestECCReplayRecovers: with double flips on some attempts but not all,
// the device replays the read and eventually delivers clean data.
func TestECCReplayRecovers(t *testing.T) {
	store := memsys.NewStore()
	geom := addr.MustSDRAMGeom(4, 512, 8192)
	d := NewDevice(geom, PaperTiming(), Spec{}, store, 0, 16)
	// Find a seed whose attempt-0 read at this site double-flips but a
	// later attempt is clean (rate 0.5 leaves escape paths).
	d.SetInjector(fault.NewInjector(fault.Plan{Seed: 11, DoubleFlipRate: 0.5, Backoff: 1}))
	res := issueRead(t, d, 2, 9, 200)
	if len(res) != 1 {
		t.Fatalf("delivered %d results", len(res))
	}
	if res[0].Err != nil {
		t.Fatalf("replayed read still dirty: %v", res[0].Err)
	}
	wantAddr := (uint32(2)*4*512 + 9) * 16
	if res[0].Data != memsys.Fill(wantAddr) {
		t.Fatalf("data %#x, want %#x", res[0].Data, memsys.Fill(wantAddr))
	}
	st := d.Stats()
	if st.UncorrectedECC == 0 || st.ECCRetries != st.UncorrectedECC {
		t.Fatalf("stats %+v: every detected double flip should retry", st)
	}
}

// TestECCUncorrectablePoisons: permanent double flips exhaust the retry
// budget and deliver a poisoned result matching ErrUncorrectable.
func TestECCUncorrectablePoisons(t *testing.T) {
	store := memsys.NewStore()
	geom := addr.MustSDRAMGeom(4, 512, 8192)
	d := NewDevice(geom, PaperTiming(), Spec{}, store, 0, 16)
	d.SetInjector(fault.NewInjector(fault.Plan{Seed: 1, DoubleFlipRate: 1, MaxRetries: 3, Backoff: 1}))
	res := issueRead(t, d, 1, 1, 100)
	if len(res) != 1 {
		t.Fatalf("delivered %d results", len(res))
	}
	if !errors.Is(res[0].Err, fault.ErrUncorrectable) {
		t.Fatalf("err = %v, want ErrUncorrectable", res[0].Err)
	}
	var ue *fault.UncorrectableError
	if !errors.As(res[0].Err, &ue) || ue.Attempts != 4 {
		t.Fatalf("err %+v: want 4 attempts (initial + 3 replays)", res[0].Err)
	}
}
