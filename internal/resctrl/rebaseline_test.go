package resctrl

import (
	"testing"

	"dicer/internal/app"
	"dicer/internal/machine"
	"dicer/internal/sim"
)

// TestMeterRebaseline pins the attach/detach hygiene the fleet layer
// relies on: after swapping the process on a core, a rebaselined meter
// reports sane (non-negative) per-period readings, whereas the stale
// baseline would subtract the old process's cumulative counters from the
// new one's.
func TestMeterRebaseline(t *testing.T) {
	m := machine.Default()
	r, err := sim.New(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(0, 0, app.MustByName("omnetpp1")); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(1, 1, app.MustByName("lbm1")); err != nil {
		t.Fatal(err)
	}
	emu := NewEmu(r, false)
	meter := NewMeter(emu)
	for i := 0; i < 8; i++ {
		r.Step(0.25)
	}
	p := meter.Sample()
	if p.CoreIPC(1) <= 0 {
		t.Fatalf("expected positive IPC on core 1, got %g", p.CoreIPC(1))
	}

	// Swap the job on core 1: counters restart from zero.
	if err := r.Detach(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(1, 1, app.MustByName("gcc_base1")); err != nil {
		t.Fatal(err)
	}
	meter.Rebaseline()
	for i := 0; i < 8; i++ {
		r.Step(0.25)
	}
	p = meter.Sample()
	if ipc := p.CoreIPC(1); ipc <= 0 {
		t.Fatalf("rebaselined meter reported non-positive IPC %g for fresh process", ipc)
	}
	for _, g := range p.Groups {
		if g.BandwidthGbps < 0 {
			t.Fatalf("rebaselined meter reported negative bandwidth %g for clos %d", g.BandwidthGbps, g.Clos)
		}
	}
}

// fullReadSystem hides Emu's CumulativeReader, so a Meter over it takes
// every baseline with the full counter read, share solve included.
type fullReadSystem struct {
	System
	CountersReader
}

// TestSolveFreeRebaselineMatchesFullRead drives two identical simulated
// servers through attach, detach and CBM changes, one metered with the
// solve-free Rebaseline and one with the full read. The share solve the
// full read runs at each rebaseline is the one the next Step would run
// on the same inputs, so every Period must agree field by field,
// bit for bit.
func TestSolveFreeRebaselineMatchesFullRead(t *testing.T) {
	type server struct {
		r     *sim.Runner
		emu   *Emu
		meter *Meter
	}
	mk := func(full bool) server {
		r, err := sim.New(machine.Default(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Attach(0, 0, app.MustByName("omnetpp1")); err != nil {
			t.Fatal(err)
		}
		emu := NewEmu(r, false)
		var sys System = emu
		if full {
			sys = fullReadSystem{emu, emu}
		}
		if _, ok := sys.(CumulativeReader); ok == full {
			t.Fatalf("full=%v: CumulativeReader visible = %v", full, ok)
		}
		return server{r, emu, NewMeter(sys)}
	}
	free, full := mk(false), mk(true)

	type action func(s server) error
	attach := func(core, clos int, name string) action {
		return func(s server) error { return s.r.Attach(core, clos, app.MustByName(name)) }
	}
	detach := func(core int) action { return func(s server) error { return s.r.Detach(core) } }
	setCBM := func(clos int, mask uint64) action { return func(s server) error { return s.emu.SetCBM(clos, mask) } }
	steps := [][]action{
		{attach(1, 1, "lbm1"), attach(2, 1, "gcc_base1")},
		{setCBM(0, 0xfff00), setCBM(1, 0x000ff)},
		{detach(2)},
		{attach(2, 1, "milc1"), attach(3, 1, "mcf1"), setCBM(1, 0x0ffff)},
		{detach(1), setCBM(0, 0xffff0)},
		{detach(3), detach(2), attach(4, 1, "libquantum1")},
	}
	for period, acts := range steps {
		for _, s := range []server{free, full} {
			for _, a := range acts {
				if err := a(s); err != nil {
					t.Fatal(err)
				}
			}
			s.meter.Rebaseline()
			for i := 0; i < 4; i++ {
				s.r.Step(0.25)
			}
		}
		got, want := free.meter.Sample(), full.meter.Sample()
		if got.Seconds != want.Seconds || got.TotalGbps != want.TotalGbps {
			t.Fatalf("period %d: seconds/total %v/%v, full read %v/%v", period, got.Seconds, got.TotalGbps, want.Seconds, want.TotalGbps)
		}
		if len(got.Cores) != len(want.Cores) || len(got.Groups) != len(want.Groups) {
			t.Fatalf("period %d: %d cores %d groups, full read %d and %d", period, len(got.Cores), len(got.Groups), len(want.Cores), len(want.Groups))
		}
		for i := range got.Cores {
			if got.Cores[i] != want.Cores[i] {
				t.Fatalf("period %d core %d: %+v, full read %+v", period, i, got.Cores[i], want.Cores[i])
			}
		}
		for i := range got.Groups {
			if got.Groups[i] != want.Groups[i] {
				t.Fatalf("period %d group %d: %+v, full read %+v", period, i, got.Groups[i], want.Groups[i])
			}
		}
		if got.CoreIPC(0) <= 0 {
			t.Fatalf("period %d: HP IPC %v", period, got.CoreIPC(0))
		}
	}
}
