package dicer

import (
	"fmt"

	"dicer/internal/app"
	"dicer/internal/cluster"
	"dicer/internal/core"
	"dicer/internal/metrics"
	"dicer/internal/obs"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

// HPApp is one high-priority application of a multi-HP scenario: the
// profile plus its own SLO (target fraction of alone performance).
type HPApp struct {
	Profile Profile
	SLO     float64 // default 0.9
}

// MultiScenario is a consolidation experiment with M high-priority
// applications sharing one box under a CLOS budget: HP app i runs on
// core i, BE applications fill the remaining cores, and the multi-HP
// DICER controller partitions the LLC per CLOS group according to an
// LFOC-style clustering plan (ROADMAP item 2). At one HP app and
// grouping "single" this is the classic Scenario topology.
type MultiScenario struct {
	// Machine is the simulated platform; zero value means DefaultMachine.
	Machine Machine
	// HPs are the high-priority applications (cores 0..M-1).
	HPs []HPApp
	// BEs are the best-effort applications, one per core starting at M.
	BEs []Profile
	// PeriodSec is the monitoring period (default 1 s).
	PeriodSec float64
	// StepsPerPeriod subdivides each period for the simulator (default 4).
	StepsPerPeriod int
	// HorizonPeriods is the number of monitoring periods (default 120).
	HorizonPeriods int

	// CLOSBudget is the number of CLOS ids the emulated CAT hardware
	// exposes (default 16, the common hardware limit). The plan uses at
	// most CLOSBudget-1 HP groups; BE is pinned to the last CLOS id.
	CLOSBudget int
	// Grouping selects the plan: GroupingClustered (default),
	// GroupingPerApp, or GroupingSingle.
	Grouping string
	// KneeEps is the clustering demand-knee cutoff (0 = cluster default).
	KneeEps float64

	// Controller carries the per-group DICER tunables, including the
	// MinHPWays floor of every HP group and the MinBEWays kept for BE;
	// zero value means DefaultConfig with this scenario's period.
	Controller ControllerConfig

	// ReclusterEvery re-evaluates the grouping every N periods (0 =
	// fixed at setup).
	ReclusterEvery int
	// UsePhaseHints exposes each app's upcoming-phase miss curve to the
	// re-clustering policy once the app is HintProgress through its
	// current phase (Com-CAS-style guidance; reactive-only when false).
	UsePhaseHints bool
	// HintProgress is the phase-progress fraction at which the next
	// phase's curve becomes visible as a hint (default 0.75).
	HintProgress float64

	// OnPeriod, when non-nil, receives every monitoring-period reading.
	OnPeriod func(period int, p Period)
	// Trace, when non-nil, receives one dicer-trace/v2 record per
	// period, with per-group decisions; see obs.Recorder.
	Trace obs.Sink
}

// HPAppResult is one HP app's summary of a multi-HP run.
type HPAppResult struct {
	Name     string
	Group    int // CLOS group under the final plan
	SLO      float64
	IPC      float64
	AloneIPC float64
}

// Norm returns the app's IPC normalised to its alone run.
func (a HPAppResult) Norm() float64 { return metrics.NormIPC(a.IPC, a.AloneIPC) }

// Slowdown returns the app's co-location slowdown (alone/co-located).
func (a HPAppResult) Slowdown() float64 { return metrics.Slowdown(a.AloneIPC, a.IPC) }

// SLOMet reports whether the app met its per-app SLO.
func (a HPAppResult) SLOMet() bool { return metrics.SLOAchieved(a.IPC, a.AloneIPC, a.SLO) }

// MultiResult summarises a multi-HP scenario run.
type MultiResult struct {
	PolicyName  string
	Apps        []HPAppResult
	BEIPCs      []float64
	BEAloneIPCs []float64
	// NumGroups and GroupWays describe the final plan.
	NumGroups  int
	GroupWays  []int
	Reclusters int
}

// MaxSlowdown returns the worst per-app slowdown — the fairness metric
// LFOC-style clustering is judged on.
func (r MultiResult) MaxSlowdown() float64 {
	var worst float64
	for _, a := range r.Apps {
		if s := a.Slowdown(); s > worst {
			worst = s
		}
	}
	return worst
}

// SLOConformance returns the fraction of HP apps that met their SLO.
func (r MultiResult) SLOConformance() float64 {
	if len(r.Apps) == 0 {
		return 0
	}
	met := 0
	for _, a := range r.Apps {
		if a.SLOMet() {
			met++
		}
	}
	return float64(met) / float64(len(r.Apps))
}

// EFU returns Eq. 1's effective utilisation over every application.
func (r MultiResult) EFU() float64 {
	norms := make([]float64, 0, len(r.Apps)+len(r.BEIPCs))
	for _, a := range r.Apps {
		norms = append(norms, a.Norm())
	}
	for i := range r.BEIPCs {
		norms = append(norms, metrics.NormIPC(r.BEIPCs[i], r.BEAloneIPCs[i]))
	}
	return metrics.EFU(norms)
}

// defaults fills unset fields.
func (s *MultiScenario) defaults() {
	if s.Machine.Cores == 0 {
		s.Machine = DefaultMachine()
	}
	if s.PeriodSec == 0 {
		s.PeriodSec = 1
	}
	if s.StepsPerPeriod == 0 {
		s.StepsPerPeriod = 4
	}
	if s.HorizonPeriods == 0 {
		s.HorizonPeriods = 120
	}
	if s.CLOSBudget == 0 {
		s.CLOSBudget = 16
	}
	if s.Grouping == "" {
		s.Grouping = core.GroupingClustered
	}
	if s.Controller.PeriodSec == 0 {
		s.Controller = DefaultControllerConfig()
		s.Controller.PeriodSec = s.PeriodSec
	}
	if s.HintProgress == 0 {
		s.HintProgress = 0.75
	}
	for i := range s.HPs {
		if s.HPs[i].SLO == 0 {
			s.HPs[i].SLO = 0.9
		}
	}
}

// multiConfig assembles the controller configuration.
func (s *MultiScenario) multiConfig() core.MultiConfig {
	return core.MultiConfig{
		Group:          s.Controller,
		WayBytes:       s.Machine.WaysBytes(1),
		CLOSBudget:     s.CLOSBudget,
		Grouping:       s.Grouping,
		KneeEps:        s.KneeEps,
		ReclusterEvery: s.ReclusterEvery,
		UsePhaseHints:  s.UsePhaseHints,
	}
}

// specsInto refreshes the per-app planning view from the live processes:
// current-phase curves, plus upcoming-phase hints for apps close enough
// to their phase boundary when hints are enabled.
func (s *MultiScenario) specsInto(specs []cluster.AppSpec, procs []*app.Proc) {
	for i, pr := range procs {
		ph := pr.PhaseRef()
		specs[i].Name = s.HPs[i].Profile.Name
		specs[i].Core = i
		specs[i].SLO = s.HPs[i].SLO
		specs[i].Curve = ph.Curve
		specs[i].APKI = ph.APKI
		specs[i].Hint = nil
		if s.UsePhaseHints && len(pr.Profile.Phases) > 1 && pr.PhaseProgress() >= s.HintProgress {
			next := (pr.PhaseIndex() + 1) % len(pr.Profile.Phases)
			specs[i].Hint = &pr.Profile.Phases[next].Curve
		}
	}
}

// Run executes the scenario and returns the summary. Alone runs for
// normalisation are executed on the same machine.
func (s *MultiScenario) Run() (MultiResult, error) {
	s.defaults()
	m := len(s.HPs)
	if m == 0 {
		return MultiResult{}, fmt.Errorf("dicer: multi scenario needs at least one HP app")
	}
	if m+len(s.BEs) > s.Machine.Cores {
		return MultiResult{}, fmt.Errorf("dicer: %d applications exceed %d cores",
			m+len(s.BEs), s.Machine.Cores)
	}

	r, err := sim.New(s.Machine, s.CLOSBudget)
	if err != nil {
		return MultiResult{}, err
	}
	beClos := s.CLOSBudget - 1
	procs := make([]*app.Proc, m)
	for i, hp := range s.HPs {
		// HP apps start in CLOS 0; Setup moves them into their groups.
		if err := r.Attach(i, 0, hp.Profile); err != nil {
			return MultiResult{}, err
		}
		procs[i] = r.Proc(i)
	}
	for i, be := range s.BEs {
		if err := r.Attach(m+i, beClos, be); err != nil {
			return MultiResult{}, err
		}
	}
	sys := resctrl.NewEmu(r, false)

	specs := make([]cluster.AppSpec, m)
	s.specsInto(specs, procs)
	mc, err := core.NewMulti(s.multiConfig(), specs)
	if err != nil {
		return MultiResult{}, err
	}
	reclusters := 0
	mc.ChainTrace(func(e core.Event) {
		if e.Kind == core.EventRecluster && e.Group == 0 {
			reclusters++
		}
	})

	var rec *obs.Recorder
	if s.Trace != nil {
		rec = obs.NewRecorder(s.Trace)
		rec.AttachController(mc)
		if err := rec.Start(s.traceHeader(mc)); err != nil {
			return MultiResult{}, err
		}
	}

	if err := mc.Setup(sys); err != nil {
		return MultiResult{}, err
	}
	meter := resctrl.NewMeter(sys)
	dt := s.PeriodSec / float64(s.StepsPerPeriod)
	for period := 0; period < s.HorizonPeriods; period++ {
		for step := 0; step < s.StepsPerPeriod; step++ {
			r.Step(dt)
		}
		p := meter.Sample()
		if s.OnPeriod != nil {
			s.OnPeriod(period, p)
		}
		s.specsInto(specs, procs)
		if err := mc.UpdateSpecs(specs); err != nil {
			return MultiResult{}, err
		}
		obsErr := mc.Observe(sys, p)
		if rec != nil {
			rec.EndPeriod(period, p, sys, obsErr)
		}
		if obsErr != nil {
			return MultiResult{}, obsErr
		}
	}

	res := MultiResult{
		PolicyName: mc.Name(),
		NumGroups:  mc.NumGroups(),
		Reclusters: reclusters,
	}
	for gi := 0; gi < mc.NumGroups(); gi++ {
		res.GroupWays = append(res.GroupWays, mc.GroupWays(gi))
	}
	alone := map[string]float64{}
	aloneRun := Scenario{Machine: s.Machine, PeriodSec: s.PeriodSec,
		StepsPerPeriod: s.StepsPerPeriod, HorizonPeriods: s.HorizonPeriods}
	aloneOf := func(prof Profile) (float64, error) {
		ipc, ok := alone[prof.Name]
		if !ok {
			var err error
			if ipc, err = aloneRun.aloneIPC(prof); err != nil {
				return 0, err
			}
			alone[prof.Name] = ipc
		}
		return ipc, nil
	}
	for i, hp := range s.HPs {
		ref, err := aloneOf(hp.Profile)
		if err != nil {
			return MultiResult{}, err
		}
		res.Apps = append(res.Apps, HPAppResult{
			Name:     hp.Profile.Name,
			Group:    mc.GroupOf(i),
			SLO:      hp.SLO,
			IPC:      procs[i].IPC(),
			AloneIPC: ref,
		})
	}
	for i, be := range s.BEs {
		ref, err := aloneOf(be)
		if err != nil {
			return MultiResult{}, err
		}
		res.BEIPCs = append(res.BEIPCs, r.Proc(m+i).IPC())
		res.BEAloneIPCs = append(res.BEAloneIPCs, ref)
	}
	return res, nil
}

// traceHeader describes the run for v2 trace sinks.
func (s *MultiScenario) traceHeader(mc *core.Controller) obs.Header {
	cfg := mc.Config()
	h := obs.Header{
		Schema:         obs.SchemaV2,
		Policy:         mc.Name(),
		NumWays:        s.Machine.LLCWays,
		PeriodSec:      s.PeriodSec,
		HorizonPeriods: s.HorizonPeriods,
		LinkGbps:       s.Machine.Link.CapacityGBps,
		Controller:     &cfg,
		CLOSBudget:     s.CLOSBudget,
		Grouping:       s.Grouping,
	}
	for _, hp := range s.HPs {
		h.HPs = append(h.HPs, hp.Profile.Name)
		h.SLOs = append(h.SLOs, hp.SLO)
	}
	for _, be := range s.BEs {
		h.BEs = append(h.BEs, be.Name)
	}
	return h
}
