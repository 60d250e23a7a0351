package dramtech

import (
	"testing"

	"pva/internal/addr"
	"pva/internal/memsys"
)

func refreshDevice(interval, trfc uint64) *Device {
	t := PaperTiming()
	t.RefreshInterval = interval
	t.TRFC = trfc
	return NewDevice(addr.MustSDRAMGeom(4, 512, 8192), t, Spec{}, memsys.NewStore(), 0, 16)
}

func TestRefreshDebtAccrues(t *testing.T) {
	d := refreshDevice(10, 4)
	if d.RefreshDue() {
		t.Fatal("fresh device already owes a refresh")
	}
	for i := 0; i < 10; i++ {
		d.Tick()
	}
	if !d.RefreshDue() || d.RefreshDebt() != 1 {
		t.Fatalf("debt after one interval = %d", d.RefreshDebt())
	}
	for i := 0; i < 20; i++ {
		d.Tick()
	}
	if d.RefreshDebt() != 3 {
		t.Fatalf("debt after three intervals = %d", d.RefreshDebt())
	}
}

func TestRefreshClearsDebtAndBlocksBanks(t *testing.T) {
	d := refreshDevice(10, 4)
	for i := 0; i < 10; i++ {
		d.Tick()
	}
	if err := d.Issue(Request{Cmd: Refresh}); err != nil {
		t.Fatal(err)
	}
	if d.RefreshDebt() != 0 {
		t.Fatalf("debt after refresh = %d", d.RefreshDebt())
	}
	// Banks busy for TRFC: an immediate ACT must fail.
	d.Tick()
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 0}); err == nil {
		t.Fatal("ACT during tRFC accepted")
	}
	for i := 0; i < 4; i++ {
		d.Tick()
	}
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 0}); err != nil {
		t.Fatalf("ACT after tRFC rejected: %v", err)
	}
	if d.Stats().Refreshes != 1 {
		t.Errorf("refresh count = %d", d.Stats().Refreshes)
	}
}

func TestRefreshRequiresIdleBanks(t *testing.T) {
	d := refreshDevice(10, 4)
	if err := d.Issue(Request{Cmd: Activate, IBank: 1, Row: 5}); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	if err := d.Issue(Request{Cmd: Refresh}); err == nil {
		t.Fatal("REF with open bank accepted")
	}
}

func TestRefreshStarvationDetected(t *testing.T) {
	d := refreshDevice(5, 2)
	// Accrue more than MaxPostponedRefreshes obligations.
	for i := 0; i < 5*(MaxPostponedRefreshes+2); i++ {
		d.Tick()
	}
	if err := d.Issue(Request{Cmd: Activate, IBank: 0, Row: 0}); err == nil {
		t.Fatal("command accepted on refresh-starved device")
	}
	// Refresh itself is still allowed and pays down the debt.
	if err := d.Issue(Request{Cmd: Refresh}); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshDisabledByDefault(t *testing.T) {
	d := NewDevice(addr.MustSDRAMGeom(4, 512, 8192), PaperTiming(), Spec{}, memsys.NewStore(), 0, 16)
	for i := 0; i < 100000; i++ {
		d.Tick()
	}
	if d.RefreshDue() {
		t.Fatal("refresh obligations accrued with RefreshInterval = 0")
	}
}
