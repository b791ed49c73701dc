package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dicer/internal/app"
	"dicer/internal/core"
	"dicer/internal/experiments"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

// sweepWorkload is the paper's Figure-1 sweep, uncached: every catalog
// pair (59×59) with 9 BEs under UM and CT for the 80-period sweep
// horizon. It has no random input, so the seed does not change it.
type sweepWorkload struct {
	cfg  experiments.Config
	jobs []experiments.Job

	// ref holds the reference pass's results, in job order; later passes
	// are checked run by run against it.
	ref       []experiments.Result
	refFigure string
	// delay, when set, busy-waits inside the span of a layer call of the
	// traced loop. Tests use it to check that the split moves only that
	// layer.
	delay [numSpans]time.Duration
}

func newSweep() *sweepWorkload {
	cfg := experiments.DefaultConfig()
	pairs := experiments.Pairs(cfg.Machine.Cores - 1)
	jobs := make([]experiments.Job, 0, 2*len(pairs))
	for _, w := range pairs {
		jobs = append(jobs,
			experiments.Job{W: w, Policy: experiments.UM, Horizon: cfg.SweepHorizonPeriods},
			experiments.Job{W: w, Policy: experiments.CT, Horizon: cfg.SweepHorizonPeriods})
	}
	return &sweepWorkload{cfg: cfg, jobs: jobs}
}

func (s *sweepWorkload) entryFuncs() []string {
	return []string{fnRunnerStep, fnMeterSample}
}

// newPass builds a fresh suite and warms its alone-run references, so
// the pass simulates every co-located run and nothing else.
func (s *sweepWorkload) newPass(o options, kind passKind) (pass, setupTimes, error) {
	cfg := s.cfg
	cfg.Workers = o.workers
	t0 := time.Now()
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		return nil, setupTimes{}, err
	}
	build := time.Since(t0)
	alone, err := warmAlone(suite)
	if err != nil {
		return nil, setupTimes{}, err
	}
	return &sweepPass{w: s, suite: suite, kind: kind, workers: o.workers}, setupTimes{alone: alone, build: build}, nil
}

// warmAlone computes the full-LLC alone-run IPC of every catalog
// application into the suite's memo.
func warmAlone(suite *experiments.Suite) (time.Duration, error) {
	t := time.Now()
	for _, name := range app.Names() {
		if _, err := suite.AloneIPC(name); err != nil {
			return 0, err
		}
	}
	return time.Since(t), nil
}

type sweepPass struct {
	w       *sweepWorkload
	suite   *experiments.Suite
	kind    passKind
	workers int
}

func (p *sweepPass) run() (passOut, error) {
	s := p.w
	n := len(s.jobs)
	results := make([]experiments.Result, n)
	errs := make([]error, n)
	lat := make([]time.Duration, n)
	gauges := make([]*heapGauge, p.workers)
	ctxs := make([]simCtx, p.workers)
	busy := make([]time.Duration, p.workers)
	spans := make([]spanAcc, p.workers)
	for w := range gauges {
		gauges[w] = newHeapGauge()
		spans[w].delay = s.delay
	}

	var prof *profiler
	if p.kind == passTraced {
		var err error
		if prof, err = startProfile(); err != nil {
			return passOut{}, err
		}
	}
	start := time.Now()
	parallel(p.workers, n, busy, func(w, i int) {
		j := s.jobs[i]
		t := time.Now()
		if p.kind == passTraced {
			results[i], errs[i] = ctxs[w].run(p.suite, j, &spans[w])
		} else {
			results[i], errs[i] = p.suite.Run(j.W, j.Policy, j.Horizon)
		}
		lat[i] = time.Since(t)
		gauges[w].sample()
	})
	wall := time.Since(start)

	out := passOut{
		wall:        wall,
		nodePeriods: int64(n) * int64(s.cfg.SweepHorizonPeriods),
		ops:         n,
		p50:         durQuantile(lat, 0.5),
		p90:         durQuantile(lat, 0.9),
	}
	for _, g := range gauges {
		out.peakHeap = max(out.peakHeap, g.peak)
	}
	if prof != nil {
		cp, err := prof.stop()
		if err != nil {
			return passOut{}, err
		}
		out.layers = sweepSplit(cp, spans, busy)
	}

	// Check every run: against the pinned digests in the reference pass,
	// against the reference results after it.
	var errCount, sloMiss int
	var efu float64
	for i, r := range results {
		switch {
		case errs[i] != nil:
			errCount++
			out.failed++
		case s.ref != nil && r != s.ref[i]:
			out.failed++
		}
		efu += r.EFU()
		if !r.SLOAchieved(sloFraction) {
			sloMiss++
		}
	}
	out.quality = quality{
		efu:       efu / float64(n),
		sloRate:   float64(sloMiss) / float64(n),
		admitRate: float64(n-errCount) / float64(n),
	}
	if p.kind == passTraced {
		return out, nil
	}
	// The memo holds every run now, so the figure costs no simulation.
	f, err := p.suite.Figure1(s.cfg.Machine.Cores - 1)
	if err != nil {
		return passOut{}, err
	}
	figure := digestString(f.Table().CSV())
	if p.kind == passReference {
		got := map[string]string{"results": digestResults(results), "figure1": figure}
		if !checkPins("sweep", defaultSeed, got) {
			out.failed = n
		}
		s.ref, s.refFigure = results, figure
	} else if figure != s.refFigure {
		out.failed = n
	}
	return out, nil
}

// sloFraction is the HP SLO of the fleet (90% of alone IPC), applied to
// the sweep's runs too.
const sloFraction = 0.9

// parallel runs fn(w, i) for every i in [0, n) on workers goroutines,
// which claim indices in order from one shared cursor. busy[w] receives
// worker w's time from start to finish. It returns when all are done.
func parallel(workers, n int, busy []time.Duration, fn func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := time.Now()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
			busy[w] = time.Since(t)
		}(w)
	}
	wg.Wait()
}

// The spans the traced sweep loop records around each layer call.
const (
	spanSim = iota
	spanMeter
	spanObserve
	numSpans
)

var spanLayers = [numSpans]string{layerSim, layerMeter, layerObserve}

type spanAcc struct {
	ns, calls [numSpans]int64
	delay     [numSpans]time.Duration
}

// end closes span i opened at t.
func (a *spanAcc) end(i int, t time.Time) {
	if d := a.delay[i]; d > 0 {
		for u := time.Now(); time.Since(u) < d; {
		}
	}
	a.ns[i] += int64(time.Since(t))
	a.calls[i]++
}

// simCtx is one worker's simulation state, reused from run to run the
// way the suite pools its own.
type simCtx struct {
	r     *sim.Runner
	emu   *resctrl.Emu
	meter *resctrl.Meter
}

// run is the benchmark's copy of the suite's co-located run loop, with a
// span around every call into a layer: HP on core 0 in the HP CLOS, the
// BEs on the next cores in the BE CLOS, the policy observing once per
// period. Its results are bit-identical to Suite.Run.
func (c *simCtx) run(suite *experiments.Suite, j experiments.Job, sp *spanAcc) (experiments.Result, error) {
	cfg := suite.Config()
	w := j.W
	var pol policy.Policy
	switch j.Policy {
	case experiments.UM:
		pol = policy.Unmanaged{}
	case experiments.CT:
		pol = policy.CacheTakeover{}
	case experiments.DICER:
		ctl, err := core.New(cfg.DICER)
		if err != nil {
			return experiments.Result{}, err
		}
		pol = ctl
	default:
		return experiments.Result{}, fmt.Errorf("unknown policy %q", j.Policy)
	}
	hp, err := app.ByName(w.HP)
	if err != nil {
		return experiments.Result{}, err
	}
	be, err := app.ByName(w.BE)
	if err != nil {
		return experiments.Result{}, err
	}
	if c.r == nil {
		if c.r, err = sim.New(cfg.Machine, 2); err != nil {
			return experiments.Result{}, err
		}
		c.emu = resctrl.NewEmu(c.r, false)
		c.meter = resctrl.NewMeter(c.emu)
	} else if err := c.r.Reset(2); err != nil {
		return experiments.Result{}, err
	}
	r := c.r
	if err := r.Attach(0, policy.HPClos, hp); err != nil {
		return experiments.Result{}, err
	}
	for i := 1; i <= w.BECount; i++ {
		if err := r.Attach(i, policy.BEClos, be); err != nil {
			return experiments.Result{}, err
		}
	}
	if err := pol.Setup(c.emu); err != nil {
		return experiments.Result{}, err
	}
	c.meter.Rebaseline()
	dt := cfg.PeriodSec / float64(cfg.StepsPerPeriod)
	for period := 0; period < j.Horizon; period++ {
		for step := 0; step < cfg.StepsPerPeriod; step++ {
			t := time.Now()
			r.Step(dt)
			sp.end(spanSim, t)
		}
		t := time.Now()
		pp := c.meter.Sample()
		sp.end(spanMeter, t)
		t = time.Now()
		err := pol.Observe(c.emu, pp)
		sp.end(spanObserve, t)
		if err != nil {
			return experiments.Result{}, err
		}
	}

	res := experiments.Result{Workload: w, Policy: j.Policy, HPIPC: r.Proc(0).IPC()}
	var beSum float64
	for i := 1; i <= w.BECount; i++ {
		beSum += r.Proc(i).IPC()
	}
	res.BEIPC = beSum / float64(w.BECount)
	if res.HPAlone, err = suite.AloneIPC(w.HP); err != nil {
		return experiments.Result{}, err
	}
	if res.BEAlone, err = suite.AloneIPC(w.BE); err != nil {
		return experiments.Result{}, err
	}
	return res, nil
}

// sweepSplit builds the traced sweep's layer split. The layers the
// benchmark calls itself are timed by their spans, as shares of the
// workers' busy time; the model layers below them come from the CPU
// profile.
func sweepSplit(cp *cpuProfile, spans []spanAcc, busy []time.Duration) *layerSplit {
	split := newLayerSplit()
	split.attribute(cp)
	var total float64
	for _, b := range busy {
		total += float64(b)
	}
	inSpans := 0.0
	for i, l := range spanLayers {
		var ns, calls float64
		for _, a := range spans {
			ns += float64(a.ns[i])
			calls += float64(a.calls[i])
		}
		split.ns[l], split.base[l], split.calls[l] = ns, total, calls
		inSpans += ns
	}
	split.ns[layerNone], split.base[layerNone] = total-inSpans, total
	split.passes = 1
	return split
}
