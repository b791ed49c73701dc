package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"dicer/internal/experiments"
	"dicer/internal/fleet"
)

// TestFleet1kReproducesRecord checks that fleet-1k at the default seed,
// cut to the recorded 60 periods, is the recorded production-scale run:
// its quality figures equal the scale_* fields of BENCH_fleet.json
// exactly.
func TestFleet1kReproducesRecord(t *testing.T) {
	var rec struct {
		EFU        float64 `json:"scale_fleet_efu"`
		SLO        int     `json:"scale_slo_violation_periods"`
		Done       int     `json:"scale_done"`
		Migrations int     `json:"scale_migrations"`
		Evicted    int     `json:"scale_evicted"`
	}
	readJSON(t, "../BENCH_fleet.json", &rec)
	suite, err := experiments.NewSuite(experiments.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleet1k().config(defaultSeed)
	cfg.HorizonPeriods = 60
	cfg.AloneIPC = suite.AloneIPC
	c, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Periods != 60 || res.FleetEFU != rec.EFU || res.SLOViolationPeriods != rec.SLO ||
		res.Done != rec.Done || res.Migrations != rec.Migrations || res.Evicted != rec.Evicted {
		t.Fatalf("fleet-1k: periods %d EFU %v SLO %d done %d migrations %d evicted %d; BENCH_fleet.json %+v",
			res.Periods, res.FleetEFU, res.SLOViolationPeriods, res.Done, res.Migrations, res.Evicted, rec)
	}
}

// TestSweepReproducesRecord checks that the sweep's Figure 1 is the
// recorded one: its CDFs at 1.1x slowdown equal BENCH_sweep.json's.
func TestSweepReproducesRecord(t *testing.T) {
	var rec struct {
		UM float64 `json:"um_cdf_1_1x_pct"`
		CT float64 `json:"ct_cdf_1_1x_pct"`
	}
	readJSON(t, "../BENCH_sweep.json", &rec)
	w := newSweep()
	suite, err := experiments.NewSuite(w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := suite.Figure1(w.cfg.Machine.Cores - 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.UMCDF[1] != rec.UM || f.CTCDF[1] != rec.CT {
		t.Fatalf("sweep CDF at 1.1x: UM %v CT %v; BENCH_sweep.json UM %v CT %v", f.UMCDF[1], f.CTCDF[1], rec.UM, rec.CT)
	}
}

// TestTracedLoopMatchesSuiteRun checks the benchmark's copy of the
// co-located run loop against Suite.Run, bit for bit, on a sample of
// cells under every policy.
func TestTracedLoopMatchesSuiteRun(t *testing.T) {
	cfg := experiments.DefaultConfig()
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := experiments.Pairs(cfg.Machine.Cores - 1)
	var ctx simCtx
	var sp spanAcc
	for i := 0; i < len(pairs); i += 173 {
		for _, pol := range []experiments.PolicyName{experiments.UM, experiments.CT, experiments.DICER} {
			j := experiments.Job{W: pairs[i], Policy: pol, Horizon: cfg.SweepHorizonPeriods}
			got, err := ctx.run(suite, j, &sp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := suite.Run(j.W, j.Policy, j.Horizon)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v under %s: traced loop %+v, Suite.Run %+v", j.W, pol, got, want)
			}
		}
	}
	if sp.calls[spanMeter] == 0 || sp.calls[spanSim] != int64(cfg.StepsPerPeriod)*sp.calls[spanMeter] {
		t.Fatalf("span counts: %d steps for %d samples", sp.calls[spanSim], sp.calls[spanMeter])
	}
}

// TestWorkloadsCheckOut runs every workload traced, at the default seed
// (pinned digests) and at the held-out seed (determinism and job
// conservation only). Every pass, traced or not, must reproduce the
// reference pass's outputs, so zero failures also means traced and
// untraced runs give identical digests.
func TestWorkloadsCheckOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"sweep", "fleet-1k", "fleet-64"} {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			if name == "sweep" && seed != defaultSeed {
				continue // no random input
			}
			o := options{seed: seed, seconds: time.Second, trace: true, workers: 2}
			out, err := measure(workloads[name](), o)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s seed %d: correct %v, %d of %d operations failed", name, seed, out.Correct, out.Failed, out.Attempted)
			}
		}
	}
}

// smallFleet is a fleet small enough for unit tests, at a seed with no
// pins, so only determinism and conservation are checked.
func smallFleet() *fleetWorkload {
	w := fleet64()
	base := w.config
	w.config = func(seed int64) fleet.Config {
		cfg := base(seed)
		cfg.Nodes, cfg.HorizonPeriods = 8, 120
		cfg.Arrivals.RatePerPeriod = 1
		return cfg
	}
	return w
}

// TestOracleCountsMismatches checks that a pass whose outputs differ
// from the reference counts every period as failed.
func TestOracleCountsMismatches(t *testing.T) {
	w := smallFleet()
	o := options{seed: heldOutSeed, workers: 2}
	ref, _, err := w.newPass(o, passReference)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ref.run()
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.ops != 120 {
		t.Fatalf("reference pass: %d of %d failed", out.failed, out.ops)
	}
	w.ref["result"] = "corrupted"
	p, _, err := w.newPass(o, passTimed)
	if err != nil {
		t.Fatal(err)
	}
	if out, err = p.run(); err != nil {
		t.Fatal(err)
	}
	if out.failed != out.ops {
		t.Fatalf("mismatched result: %d of %d periods failed, want all", out.failed, out.ops)
	}
}

// TestPinnedSeedMismatchFails checks that the pins bind at the default
// seed: a fleet whose outputs differ from them fails its reference pass.
func TestPinnedSeedMismatchFails(t *testing.T) {
	w := smallFleet() // named fleet-64, so the full-size fleet's pins apply
	p, _, err := w.newPass(options{seed: defaultSeed, workers: 1}, passReference)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.run()
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != out.ops {
		t.Fatalf("%d of %d periods failed against foreign pins, want all", out.failed, out.ops)
	}
}

// TestSelfCheckCatchesMissingEntry checks that the traced run fails
// loudly when an expected entry function gets no samples, as after a
// rename, and passes when the entries are found.
func TestSelfCheckCatchesMissingEntry(t *testing.T) {
	w := fleet64()
	base := w.config
	w.config = func(seed int64) fleet.Config {
		cfg := base(seed)
		cfg.HorizonPeriods = 1200
		return cfg
	}
	p, _, err := w.newPass(options{seed: heldOutSeed, workers: 2}, passTraced)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.run()
	if err != nil {
		t.Fatal(err)
	}
	if err := selfCheck(out.layers, []string{fnClusterStep}, 0); err != nil {
		t.Fatal(err)
	}
	renamed := "dicer/internal/fleet.(*Node).Renamed"
	err = selfCheck(out.layers, []string{fnClusterStep, renamed}, 0)
	if err == nil || !strings.Contains(err.Error(), renamed) || strings.Contains(err.Error(), fnClusterStep) {
		t.Fatalf("self-check error = %v, want one naming only the missing entry", err)
	}
}

// TestBusyWaitMovesOnlyItsLayer adds a known busy-wait inside the meter
// span of the traced sweep loop. The meter's time per call and share
// must grow by about the wait; the other layers' time per call must not
// move by a comparable amount.
func TestBusyWaitMovesOnlyItsLayer(t *testing.T) {
	const wait = 20 * time.Microsecond
	split := func(delay time.Duration) *layerSplit {
		w := newSweep()
		w.jobs = w.jobs[:300]
		w.delay[spanMeter] = delay
		p, _, err := w.newPass(options{workers: 2}, passTraced)
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.run()
		if err != nil {
			t.Fatal(err)
		}
		return out.layers
	}
	base, slow := split(0), split(wait)
	perCall := func(s *layerSplit, l string) time.Duration {
		return time.Duration(s.ns[l] / s.calls[l])
	}
	if d := perCall(slow, layerMeter) - perCall(base, layerMeter); d < wait*9/10 || d > wait*2 {
		t.Errorf("meter span grew by %v per call, want about %v", d, wait)
	}
	if slow.ns[layerMeter]/slow.base[layerMeter] <= base.ns[layerMeter]/base.base[layerMeter] {
		t.Errorf("meter share did not grow")
	}
	for _, l := range []string{layerSim, layerObserve} {
		if d := perCall(slow, l) - perCall(base, l); d > wait/10 || d < -wait/10 {
			t.Errorf("%s moved by %v per call", l, d)
		}
	}
}

// TestProfileParse checks the profile decoder on a real CPU profile:
// the spinning function must show up on sampled stacks.
func TestProfileParse(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	spinFor(300 * time.Millisecond)
	cp, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	var spin, total int64
	for _, s := range cp.samples {
		total += s.ns
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinFor") {
				spin += s.ns
				break
			}
		}
	}
	if spin < total/2 || spin < int64(100*time.Millisecond) {
		t.Fatalf("spinFor on %v of %v sampled", time.Duration(spin), time.Duration(total))
	}
}

//go:noinline
func spinFor(d time.Duration) {
	for t := time.Now(); time.Since(t) < d; {
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatal(err)
	}
}
