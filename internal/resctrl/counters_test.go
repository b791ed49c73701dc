package resctrl

import (
	"testing"

	"dicer/internal/app"
	"dicer/internal/machine"
	"dicer/internal/sim"
)

// TestEmuCountersMatchRunner holds Emu's direct counter read to a reading
// built independently: per-core counters from Runner.Proc, the population
// order and CLOS from the test's own attach bookkeeping, and occupancy
// from a twin runner on the reference solver, which sums each process's
// curve-derived resident bytes at freshly solved shares instead of
// reading the memo. The two servers go through attach, detach and CBM
// changes, and are read both right after a change (the share solve runs
// inside the read) and after stepping.
func TestEmuCountersMatchRunner(t *testing.T) {
	mk := func() *sim.Runner {
		r, err := sim.New(machine.Default(), 2)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	opt, ref := mk(), mk()
	ref.UseReferenceSolver(true)
	emu := NewEmu(opt, false)

	type placed struct{ core, clos int }
	var pop []placed // attach order, as the Runner keeps it
	attach := func(core, clos int, name string) {
		for _, r := range []*sim.Runner{opt, ref} {
			if err := r.Attach(core, clos, app.MustByName(name)); err != nil {
				t.Fatal(err)
			}
		}
		pop = append(pop, placed{core, clos})
	}
	detach := func(core int) {
		for _, r := range []*sim.Runner{opt, ref} {
			if err := r.Detach(core); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range pop {
			if p.core == core {
				pop = append(pop[:i], pop[i+1:]...)
				break
			}
		}
	}
	setCBM := func(clos int, mask uint64) {
		if err := emu.SetCBM(clos, mask); err != nil {
			t.Fatal(err)
		}
		if err := ref.SetMask(clos, mask); err != nil {
			t.Fatal(err)
		}
	}

	var got, cum Counters
	check := func(when string) {
		t.Helper()
		emu.CountersInto(&got)
		want := Counters{Time: ref.Time()}
		for _, p := range pop {
			pr := ref.Proc(p.core)
			want.Cores = append(want.Cores, CoreSample{Core: p.core, Clos: p.clos,
				Name: pr.Profile.Name, Instructions: pr.Instructions, Cycles: pr.Cycles})
		}
		for c := range ref.NumClos() {
			want.Groups = append(want.Groups, GroupSample{Clos: c, CBM: ref.Mask(c),
				OccupancyBytes: ref.Occupancy(c), MemBytes: ref.ClosBytes(c)})
		}
		if got.Time != want.Time || len(got.Cores) != len(want.Cores) || len(got.Groups) != len(want.Groups) {
			t.Fatalf("%s: time %v, %d cores, %d groups; want %v, %d, %d", when,
				got.Time, len(got.Cores), len(got.Groups), want.Time, len(want.Cores), len(want.Groups))
		}
		for i := range want.Cores {
			if got.Cores[i] != want.Cores[i] {
				t.Fatalf("%s: core entry %d = %+v, want %+v", when, i, got.Cores[i], want.Cores[i])
			}
		}
		for i := range want.Groups {
			if got.Groups[i] != want.Groups[i] {
				t.Fatalf("%s: group %d = %+v, want %+v", when, i, got.Groups[i], want.Groups[i])
			}
		}
		for _, p := range pop {
			if got.Groups[p.clos].OccupancyBytes <= 0 {
				t.Fatalf("%s: group %d holds core %d but reads no occupancy", when, p.clos, p.core)
			}
		}
		// The cumulative read is the same reading without occupancy.
		emu.CumulativeInto(&cum)
		for i := range got.Cores {
			if cum.Cores[i] != got.Cores[i] {
				t.Fatalf("%s: cumulative core entry %d = %+v, full read %+v", when, i, cum.Cores[i], got.Cores[i])
			}
		}
		for i, g := range got.Groups {
			g.OccupancyBytes = 0
			if cum.Groups[i] != g {
				t.Fatalf("%s: cumulative group %d = %+v, want %+v", when, i, cum.Groups[i], g)
			}
		}
	}
	step := func(n int) {
		for i := 0; i < n; i++ {
			opt.Step(0.5)
			ref.Step(0.5)
		}
		check("after stepping")
	}

	attach(0, 0, "omnetpp1")
	check("after the first attach")
	step(4)
	attach(1, 1, "gcc_base1")
	attach(2, 1, "lbm1")
	check("after attaching two BEs")
	step(8)
	setCBM(0, 0xfff00)
	setCBM(1, 0x000ff)
	check("after SetCBM")
	step(8)
	detach(1)
	check("after detaching core 1")
	step(4)
	attach(1, 1, "milc1")
	attach(3, 0, "gcc_base2")
	setCBM(1, 0x0ffff)
	check("after re-attaching core 1 and widening CLOS 1")
	step(60) // long enough for the gcc profiles to change phase
	if opt.Proc(3).PhaseIndex() == 0 && opt.Proc(3).Completions == 0 {
		t.Fatal("gcc_base2 never left its first phase")
	}
	detach(0)
	detach(3)
	check("after detaching every CLOS 0 process")
	step(4)
}
