package obs

import (
	"testing"

	"dicer/internal/cluster"
	"dicer/internal/core"
	"dicer/internal/mrc"
	"dicer/internal/resctrl"
)

// groupedSystem adds core moves to fakeSystem, so a grouped controller
// can place each HP core in its group's CLOS.
type groupedSystem struct {
	fakeSystem
	cores [4]int
}

func (g *groupedSystem) MoveCore(core, clos int) error {
	g.cores[core] = clos
	return nil
}

var _ resctrl.CoreMover = (*groupedSystem)(nil)

// groupedController builds the M=3 grouped controller: three HP apps,
// one CLOS group each, BE on CLOS 3.
func groupedController() *core.Controller {
	curve := func(mb float64) mrc.Curve {
		return mrc.MustCurve(0.05, mrc.Component{Bytes: mb * (1 << 20), Frac: 0.6})
	}
	return core.MustNewMulti(core.MultiConfig{
		Group:      core.DefaultConfig(),
		WayBytes:   1.25 * (1 << 20),
		CLOSBudget: 4,
		Grouping:   core.GroupingPerApp,
	}, []cluster.AppSpec{
		{Name: "a", Core: 0, SLO: 0.9, Curve: curve(16)},
		{Name: "b", Core: 1, SLO: 0.9, Curve: curve(8)},
		{Name: "c", Core: 2, SLO: 0.9, Curve: curve(1)},
	})
}

// groupedPeriod builds a reading for the three HP cores in the CLOS the
// controller moved them to and one BE core in beClos, every CLOS moving
// bw of memory traffic.
func groupedPeriod(cores [4]int, beClos int, hpIPC, bw float64) resctrl.Period {
	p := resctrl.Period{Seconds: 1}
	for c := 0; c < 3; c++ {
		p.Cores = append(p.Cores, resctrl.PeriodCore{Core: c, Clos: cores[c], IPC: hpIPC})
	}
	p.Cores = append(p.Cores, resctrl.PeriodCore{Core: 3, Clos: beClos, IPC: 0.8})
	for clos := 0; clos <= beClos; clos++ {
		p.Groups = append(p.Groups, resctrl.PeriodGroup{Clos: clos, BandwidthGbps: bw, OccupancyBytes: 1 << 20})
		p.TotalGbps += bw
	}
	return p
}

// TestRecorderAllocFree pins the observability layer's hot-path
// guarantee: assembling and emitting a record costs zero heap
// allocations through the no-op sink and through a ring — the two sinks
// meant to stay attached for the lifetime of a deployment. A regression
// here means a slice, closure, or interface boxing crept into EndPeriod
// (or a sink started copying lazily).
func TestRecorderAllocFree(t *testing.T) {
	cases := []struct {
		name string
		sink Sink
	}{
		{"nop", NopSink{}},
		{"ring", NewRing(64)},
		{"multi-nop-ring", MultiSink{NopSink{}, NewRing(64)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctl := core.MustNew(core.DefaultConfig())
			sys := &fakeSystem{ways: 20}
			rec := NewRecorder(tc.sink)
			rec.AttachController(ctl)
			if err := ctl.Setup(sys); err != nil {
				t.Fatal(err)
			}
			steady := period(1.0, 0.8, 5, 20)
			for i := 0; i < 30; i++ {
				if err := ctl.Observe(sys, steady); err != nil {
					t.Fatal(err)
				}
				rec.EndPeriod(i, steady, sys, nil)
			}
			n := 30
			if got := testing.AllocsPerRun(200, func() {
				if err := ctl.Observe(sys, steady); err != nil {
					t.Fatal(err)
				}
				rec.EndPeriod(n, steady, sys, nil)
				n++
			}); got != 0 {
				t.Errorf("steady traced period: %v allocs, want 0", got)
			}

			// The decision-emitting path (oscillating IPC forces resets
			// and validates, each folding events into the record) must be
			// allocation-free too — the fixed decision buffer exists for
			// exactly this.
			flip := false
			if got := testing.AllocsPerRun(200, func() {
				flip = !flip
				p := period(0.6, 0.8, 5, 20)
				if flip {
					p = period(1.4, 0.8, 5, 20)
				}
				if err := ctl.Observe(sys, p); err != nil {
					t.Fatal(err)
				}
				rec.EndPeriod(n, p, sys, nil)
				n++
			}); got != 0 {
				t.Errorf("decision-emitting traced period: %v allocs, want 0", got)
			}
		})
	}

	// The v2 path: per-group records and decision buffers are recorder
	// scratch too.
	t.Run("grouped-nop", func(t *testing.T) {
		ctl := groupedController()
		sys := &groupedSystem{fakeSystem: fakeSystem{ways: 20}}
		rec := NewRecorder(NopSink{})
		rec.AttachController(ctl)
		if err := ctl.Setup(sys); err != nil {
			t.Fatal(err)
		}
		if ctl.NumGroups() != 3 {
			t.Fatalf("grouped controller runs %d groups, want 3", ctl.NumGroups())
		}
		steady := groupedPeriod(sys.cores, ctl.BEClos(), 1.0, 5)
		worse := groupedPeriod(sys.cores, ctl.BEClos(), 0.6, 5)
		better := groupedPeriod(sys.cores, ctl.BEClos(), 1.4, 5)
		n := 0
		step := func(p resctrl.Period) {
			if err := ctl.Observe(sys, p); err != nil {
				t.Fatal(err)
			}
			rec.EndPeriod(n, p, sys, nil)
			n++
		}
		for i := 0; i < 30; i++ {
			step(steady)
		}
		if got := testing.AllocsPerRun(200, func() { step(steady) }); got != 0 {
			t.Errorf("steady grouped period: %v allocs, want 0", got)
		}
		flip := false
		if got := testing.AllocsPerRun(200, func() {
			flip = !flip
			if flip {
				step(better)
			} else {
				step(worse)
			}
		}); got != 0 {
			t.Errorf("decision-emitting grouped period: %v allocs, want 0", got)
		}
	})
}

// BenchmarkTraceRecord measures one traced monitoring period: controller
// Observe plus record assembly and emission. CI's bench-smoke runs it
// with -benchmem as the allocation guard (0 allocs/op).
func BenchmarkTraceRecord(b *testing.B) {
	for _, tc := range []struct {
		name string
		sink Sink
	}{
		{"nop", NopSink{}},
		{"ring", NewRing(64)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ctl := core.MustNew(core.DefaultConfig())
			sys := &fakeSystem{ways: 20}
			rec := NewRecorder(tc.sink)
			rec.AttachController(ctl)
			if err := ctl.Setup(sys); err != nil {
				b.Fatal(err)
			}
			steady := period(1.0, 0.8, 5, 20)
			for i := 0; i < 30; i++ {
				if err := ctl.Observe(sys, steady); err != nil {
					b.Fatal(err)
				}
				rec.EndPeriod(i, steady, sys, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ctl.Observe(sys, steady); err != nil {
					b.Fatal(err)
				}
				rec.EndPeriod(i, steady, sys, nil)
			}
		})
	}
}
