package sim

import (
	"testing"

	"dicer/internal/app"
	"dicer/internal/cache"
)

// tenCoreRunner builds the standard HP + 9 BE co-location under a
// CT-style split, the shape every experiment drives.
func tenCoreRunner(tb testing.TB) *Runner {
	tb.Helper()
	r, err := New(testMachine(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.Attach(0, 0, app.MustByName("omnetpp1")); err != nil {
		tb.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if err := r.Attach(i, 1, app.MustByName("gcc_base1")); err != nil {
			tb.Fatal(err)
		}
	}
	if err := r.SetMask(0, cache.ContiguousMask(1, 19)); err != nil {
		tb.Fatal(err)
	}
	if err := r.SetMask(1, cache.ContiguousMask(0, 1)); err != nil {
		tb.Fatal(err)
	}
	return r
}

// BenchmarkStepUncached forces a full share + bandwidth re-solve every
// step by alternating the HP mask (each SetMask bumps the change epoch),
// the worst case a policy can inflict once per period.
func BenchmarkStepUncached(b *testing.B) {
	r := tenCoreRunner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			_ = r.SetMask(0, cache.ContiguousMask(1, 19))
		} else {
			_ = r.SetMask(0, cache.ContiguousMask(2, 18))
		}
		r.Step(0.25)
	}
}

// BenchmarkStepSteadyState measures the cached path: no mask changes, so
// Steps between phase transitions skip both solves entirely.
func BenchmarkStepSteadyState(b *testing.B) {
	r := tenCoreRunner(b)
	r.Step(0.25) // prime the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step(0.25)
	}
}

// TestStepZeroAllocsSteadyState is the allocation guard the ISSUE 2
// acceptance criteria pin: steady-state Step must be 0 allocs/op. The
// window is long enough to cross phase transitions, so the re-solve path
// is covered too — all its working storage is Runner-owned scratch.
func TestStepZeroAllocsSteadyState(t *testing.T) {
	r := tenCoreRunner(t)
	r.Step(0.25)
	allocs := testing.AllocsPerRun(200, func() {
		r.Step(0.25)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestStepZeroAllocsAfterMask extends the guard to the uncached path: a
// mask flip forces the full share + bandwidth re-solve, which must also
// run out of scratch buffers.
func TestStepZeroAllocsAfterMask(t *testing.T) {
	r := tenCoreRunner(t)
	r.Step(0.25)
	flip := 0
	allocs := testing.AllocsPerRun(100, func() {
		if flip%2 == 0 {
			_ = r.SetMask(0, cache.ContiguousMask(1, 19))
		} else {
			_ = r.SetMask(0, cache.ContiguousMask(2, 18))
		}
		flip++
		r.Step(0.25)
	})
	if allocs != 0 {
		t.Fatalf("uncached Step allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestStepEquivalenceReference locks the memoised solver to the retained
// reference implementation: identical masks, caps, parking, CLOS moves,
// detach/attach churn and steps must produce bit-identical per-proc
// counters, operating points and per-CLOS traffic and occupancy after
// every step. The events cover every path that must invalidate the memo,
// including long steps that cross phase boundaries and wrap a profile,
// one of them taken while the optimised runner is switched to the
// reference solver, and a Reset to an empty runner at the end.
func TestStepEquivalenceReference(t *testing.T) {
	opt := tenCoreRunner(t)
	ref := tenCoreRunner(t)
	ref.UseReferenceSolver(true)

	type event struct {
		step    int
		optOnly bool // the reference runner stays on the reference solver
		apply   func(r *Runner)
	}
	events := []event{
		{3, false, func(r *Runner) { _ = r.SetMask(0, cache.ContiguousMask(4, 16)) }},
		{3, false, func(r *Runner) { _ = r.SetMask(1, cache.ContiguousMask(0, 4)) }},
		{7, false, func(r *Runner) { _ = r.SetBWCap(1, 20) }},
		{11, false, func(r *Runner) { _ = r.SetCoreParked(9, true) }},
		{15, false, func(r *Runner) { _ = r.SetCoreParked(9, false) }},
		{19, false, func(r *Runner) { _ = r.SetBWCap(1, 0) }},
		{23, false, func(r *Runner) { _ = r.SetMask(0, cache.ContiguousMask(1, 19)) }},
		{23, false, func(r *Runner) { _ = r.SetMask(1, cache.ContiguousMask(0, 1)) }},
		{28, false, func(r *Runner) { _ = r.SetClos(4, 0) }},
		{30, false, func(r *Runner) { _ = r.Detach(7) }},
		{32, false, func(r *Runner) { _ = r.SetClos(4, 1) }},
		{33, false, func(r *Runner) { _ = r.Attach(7, 1, app.MustByName("milc1")) }},
		{36, true, func(r *Runner) { r.UseReferenceSolver(true) }},
		{37, true, func(r *Runner) { r.UseReferenceSolver(false) }},
	}
	// Long steps cross several phase boundaries of the two-phase gcc
	// profiles, a profile wrap among them, and end in another phase than
	// they start in, so the next step must re-solve.
	long := map[int]bool{25: true, 36: true}
	check := func(step int) {
		t.Helper()
		if opt.Inflation() != ref.Inflation() || opt.Utilisation() != ref.Utilisation() {
			t.Fatalf("step %d: operating point diverged: inflation %v vs %v, util %v vs %v",
				step, opt.Inflation(), ref.Inflation(), opt.Utilisation(), ref.Utilisation())
		}
		for core := 0; core < 10; core++ {
			po, pr := opt.Proc(core), ref.Proc(core)
			if (po == nil) != (pr == nil) {
				t.Fatalf("step %d core %d: attached %v vs %v", step, core, po != nil, pr != nil)
			}
			if po == nil {
				continue
			}
			if po.Instructions != pr.Instructions || po.Cycles != pr.Cycles || po.MemBytes != pr.MemBytes ||
				po.Completions != pr.Completions || po.PhaseIndex() != pr.PhaseIndex() {
				t.Fatalf("step %d core %d: counters diverged: instr %v vs %v, cycles %v vs %v, bytes %v vs %v, completions %d vs %d, phase %d vs %d",
					step, core, po.Instructions, pr.Instructions, po.Cycles, pr.Cycles, po.MemBytes, pr.MemBytes,
					po.Completions, pr.Completions, po.PhaseIndex(), pr.PhaseIndex())
			}
		}
		for c := range opt.NumClos() {
			if opt.ClosBytes(c) != ref.ClosBytes(c) || opt.Occupancy(c) != ref.Occupancy(c) {
				t.Fatalf("step %d clos %d: bytes %v vs %v, occupancy %v vs %v",
					step, c, opt.ClosBytes(c), ref.ClosBytes(c), opt.Occupancy(c), ref.Occupancy(c))
			}
		}
	}
	for step := 0; step < 44; step++ {
		for _, ev := range events {
			if ev.step == step {
				ev.apply(opt)
				if !ev.optOnly {
					ev.apply(ref)
				}
			}
		}
		dt := 0.25
		if long[step] {
			dt = 100
		}
		gcc := opt.Proc(1)
		phase, completions := gcc.PhaseIndex(), gcc.Completions
		opt.Step(dt)
		ref.Step(dt)
		if long[step] {
			crossed := (gcc.Completions-completions)*len(gcc.Profile.Phases) + gcc.PhaseIndex() - phase
			if crossed < 2 || gcc.Completions == completions || gcc.PhaseIndex() == phase {
				t.Fatalf("step %d: long step crossed %d phase boundaries and %d wraps, ending in phase %d from %d; want >=2, >=1 and another phase",
					step, crossed, gcc.Completions-completions, gcc.PhaseIndex(), phase)
			}
		}
		check(step)
	}
	for _, r := range []*Runner{opt, ref} {
		if err := r.Reset(2); err != nil {
			t.Fatal(err)
		}
	}
	for c := range opt.NumClos() {
		if opt.Occupancy(c) != 0 || ref.Occupancy(c) != 0 {
			t.Fatalf("clos %d after Reset: occupancy %v vs %v, want 0", c, opt.Occupancy(c), ref.Occupancy(c))
		}
	}
}

// TestRunnerReset verifies a pooled Runner behaves like a fresh one after
// Reset: same trajectory from the same inputs.
func TestRunnerReset(t *testing.T) {
	fresh := tenCoreRunner(t)
	for i := 0; i < 10; i++ {
		fresh.Step(0.25)
	}

	reused := tenCoreRunner(t)
	for i := 0; i < 5; i++ {
		reused.Step(0.25)
	}
	if err := reused.Reset(2); err != nil {
		t.Fatal(err)
	}
	if reused.Time() != 0 {
		t.Fatalf("Reset left time at %v", reused.Time())
	}
	if reused.Proc(0) != nil {
		t.Fatal("Reset left a process attached")
	}
	if reused.Mask(0) != testMachine().FullMask() || reused.Mask(1) != testMachine().FullMask() {
		t.Fatal("Reset did not restore full masks")
	}
	// Rebuild the same scenario on the reused Runner.
	if err := reused.Attach(0, 0, app.MustByName("omnetpp1")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if err := reused.Attach(i, 1, app.MustByName("gcc_base1")); err != nil {
			t.Fatal(err)
		}
	}
	_ = reused.SetMask(0, cache.ContiguousMask(1, 19))
	_ = reused.SetMask(1, cache.ContiguousMask(0, 1))
	for i := 0; i < 10; i++ {
		reused.Step(0.25)
	}
	for core := 0; core < 10; core++ {
		pf, pr := fresh.Proc(core), reused.Proc(core)
		if pf.Instructions != pr.Instructions || pf.Cycles != pr.Cycles || pf.MemBytes != pr.MemBytes {
			t.Fatalf("core %d: pooled Runner diverged from fresh after Reset", core)
		}
	}
}
