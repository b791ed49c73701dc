package resctrl

import "testing"

// The experiment engine samples the meter once per monitoring period —
// ~557k times across the 59×59 sweep — so the steady-state sampling
// path (Runner read API → Emu counters → Meter period) is pinned at
// zero allocations per call.

func TestMeterSampleSteadyStateZeroAlloc(t *testing.T) {
	e := testEmu(t, false)
	m := NewMeter(e)
	// Warm the Meter- and Emu-owned buffers.
	for i := 0; i < 3; i++ {
		e.Runner().Step(0.25)
		m.Sample()
	}
	if got := testing.AllocsPerRun(200, func() {
		e.Runner().Step(0.25)
		if p := m.Sample(); p.Seconds <= 0 {
			t.Error("non-positive period")
		}
	}); got != 0 {
		t.Errorf("steady-state Sample allocates %v/op, want 0", got)
	}
}

func TestCountersIntoSteadyStateZeroAlloc(t *testing.T) {
	e := testEmu(t, false)
	var c Counters
	e.CountersInto(&c)
	if got := testing.AllocsPerRun(200, func() {
		e.CountersInto(&c)
	}); got != 0 {
		t.Errorf("steady-state CountersInto allocates %v/op, want 0", got)
	}
}

func TestRebaselineSteadyStateZeroAlloc(t *testing.T) {
	e := testEmu(t, false)
	m := NewMeter(e)
	m.Rebaseline()
	if got := testing.AllocsPerRun(200, func() {
		m.Rebaseline()
	}); got != 0 {
		t.Errorf("steady-state Rebaseline allocates %v/op, want 0", got)
	}
}

// TestMeterSampleAfterMaskChangeZeroAlloc covers the path where a mask
// change invalidated the cache shares, so the share solve runs inside
// Sample's occupancy read: it must run out of Runner-owned scratch too.
func TestMeterSampleAfterMaskChangeZeroAlloc(t *testing.T) {
	e := testEmu(t, false)
	m := NewMeter(e)
	masks := [2]uint64{0xfff00, 0xffff0}
	for i := 0; i < 3; i++ {
		e.Runner().Step(0.25)
		_ = e.SetCBM(0, masks[i%2])
		m.Sample()
	}
	flip := 0
	if got := testing.AllocsPerRun(200, func() {
		e.Runner().Step(0.25)
		if err := e.SetCBM(0, masks[flip%2]); err != nil {
			t.Fatal(err)
		}
		flip++
		if p := m.Sample(); p.Seconds <= 0 {
			t.Error("non-positive period")
		}
	}); got != 0 {
		t.Errorf("Sample after a mask change allocates %v/op, want 0", got)
	}
}
