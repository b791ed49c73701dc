package main

import (
	"crypto/sha256"
	"encoding/json"
	"hash"
	"time"

	"dicer/internal/experiments"
	"dicer/internal/fleet"
)

// fleetWorkload runs one fleet configuration from its first period to
// its horizon, with arrivals drawn from the seed.
type fleetWorkload struct {
	name   string
	config func(seed int64) fleet.Config
	entry  []string

	// ref holds the reference pass's digests; later passes must match.
	ref map[string]string
}

// fleet1k is the recorded production-scale configuration (the
// fleetScale1000 record of BENCH_fleet.json): 1000 two-HP nodes under
// headroom placement with SLO-burn migration, 400 arrivals per period
// against a queue of 2000, the flight recorder armed. It is overloaded,
// so placement dominates. It runs for 120 periods where the record ran
// 60 (its first 60 periods are the recorded run): the queue fills at
// period 22, and at 60 periods the median step fell in the empty gap
// between the ~50 ms placing steps and the ~3 ms saturated ones, where
// it swung by a quarter from run to run.
func fleet1k() *fleetWorkload {
	return &fleetWorkload{
		name: "fleet-1k",
		config: func(seed int64) fleet.Config {
			cfg := experiments.DefaultConfig()
			return fleet.Config{
				Nodes:          1000,
				HPsPerNode:     2,
				Machine:        cfg.Machine,
				Policy:         "DICER",
				DICER:          cfg.DICER,
				PeriodSec:      cfg.PeriodSec,
				StepsPerPeriod: cfg.StepsPerPeriod,
				HorizonPeriods: 120,
				Scheduler:      "headroom",
				QueueCap:       2000,
				Migration:      fleet.MigrationConfig{Enabled: true},
				Forensics:      fleet.ForensicsConfig{Enabled: true},
				Arrivals: fleet.ArrivalConfig{
					Seed: seed, RatePerPeriod: 400, MeanDurationPeriods: 10,
					ClassWeights: [4]float64{0.5, 0.25, 0.15, 0.1},
				},
			}
		},
		entry: []string{fnClusterStep, fnHeadroomPick, fnPredict, fnStepPeriod,
			fnRunnerStep, fnMeterSample, fnMultiObserve},
	}
}

// fleet64 is a healthy operating point: 64 single-HP DICER nodes under
// headroom placement, about 6 arrivals per period of 60-period mean
// jobs against a queue of 64. Nothing is rejected and jobs do not wait,
// so node stepping dominates.
func fleet64() *fleetWorkload {
	return &fleetWorkload{
		name: "fleet-64",
		config: func(seed int64) fleet.Config {
			cfg := experiments.DefaultConfig()
			return fleet.Config{
				Nodes:          64,
				HPsPerNode:     1,
				Machine:        cfg.Machine,
				Policy:         "DICER",
				DICER:          cfg.DICER,
				PeriodSec:      cfg.PeriodSec,
				StepsPerPeriod: cfg.StepsPerPeriod,
				HorizonPeriods: 4800,
				Scheduler:      "headroom",
				QueueCap:       64,
				Arrivals: fleet.ArrivalConfig{
					Seed: seed, RatePerPeriod: 6, MeanDurationPeriods: 60,
					ClassWeights: [4]float64{0.5, 0.25, 0.15, 0.1},
				},
			}
		},
		entry: []string{fnClusterStep, fnHeadroomPick, fnStepPeriod,
			fnRunnerStep, fnMeterSample, fnObserve},
	}
}

func (f *fleetWorkload) entryFuncs() []string { return f.entry }

// newPass builds a fresh suite for the alone-run references, warms them
// for every catalog application, and builds the cluster.
func (f *fleetWorkload) newPass(o options, kind passKind) (pass, setupTimes, error) {
	t0 := time.Now()
	suite, err := experiments.NewSuite(experiments.DefaultConfig())
	if err != nil {
		return nil, setupTimes{}, err
	}
	build := time.Since(t0)
	alone, err := warmAlone(suite)
	if err != nil {
		return nil, setupTimes{}, err
	}

	cfg := f.config(o.seed)
	cfg.Workers = o.workers
	cfg.AloneIPC = suite.AloneIPC
	p := &fleetPass{w: f, kind: kind, seed: o.seed, cfg: cfg, split: newLayerSplit()}
	if kind != passTimed {
		p.bad = make([]bool, cfg.HorizonPeriods)
		p.candidates = cfg.Nodes
		cfg.OnPeriod = p.onPeriod
	}
	if kind == passReference {
		p.trace = sha256.New()
		cfg.Trace = p.trace
	}
	t1 := time.Now()
	if p.c, err = fleet.New(cfg); err != nil {
		return nil, setupTimes{}, err
	}
	build += time.Since(t1)
	return p, setupTimes{alone: alone, build: build}, nil
}

type fleetPass struct {
	w     *fleetWorkload
	kind  passKind
	seed  int64
	cfg   fleet.Config
	c     *fleet.Cluster
	trace hash.Hash

	// Per-period checks and counts, from the records OnPeriod hands over.
	bad                     []bool
	period                  int
	admitted, done, dropped int
	prevQueue, candidates   int
	split                   *layerSplit
}

func (p *fleetPass) run() (passOut, error) {
	horizon := p.cfg.HorizonPeriods
	out := passOut{
		nodePeriods: int64(p.cfg.Nodes) * int64(horizon),
		ops:         horizon,
	}
	lat := make([]time.Duration, 0, horizon)
	g := newHeapGauge()
	var prof *profiler
	if p.kind == passTraced {
		var err error
		if prof, err = startProfile(); err != nil {
			return passOut{}, err
		}
	}
	stepped := 0
	start := time.Now()
	for ; stepped < horizon; stepped++ {
		t := time.Now()
		err := p.c.Step()
		lat = append(lat, time.Since(t))
		g.sample()
		if err != nil {
			break
		}
	}
	out.wall = time.Since(start)
	out.p50, out.p90 = durQuantile(lat, 0.5), durQuantile(lat, 0.9)
	out.peakHeap = g.peak
	if prof != nil {
		cp, err := prof.stop()
		if err != nil {
			return passOut{}, err
		}
		p.split.attribute(cp)
		p.split.passes = 1
		out.layers = p.split
	}

	res, err := p.c.Finish()
	digests := map[string]string{"result": digestJSON(res), "incidents": digestIncidents(p.c.Incidents())}
	ok := err == nil && stepped == horizon && conserved(res)
	if p.kind == passReference {
		digests["trace"] = hexSum(p.trace)
		ok = ok && checkPins(p.w.name, p.seed, digests)
		p.w.ref = digests
	} else {
		ok = ok && digests["result"] == p.w.ref["result"] && digests["incidents"] == p.w.ref["incidents"]
	}
	for i := 0; i < horizon; i++ {
		if !ok || i >= stepped || (p.bad != nil && p.bad[i]) {
			out.failed++
		}
	}
	nodePeriods := float64(out.nodePeriods)
	out.quality = quality{
		efu:       res.FleetEFU,
		sloRate:   float64(res.SLOViolationPeriods) / nodePeriods,
		admitRate: ratio(float64(res.Admitted), float64(res.Arrivals)),
	}
	return out, nil
}

// conserved checks that no job was created or lost over the run.
func conserved(r fleet.Result) bool {
	return r.Admitted+r.Rejected == r.Arrivals &&
		r.Done+r.RunningEnd+r.QueuedEnd+r.Dropped == r.Admitted
}

// onPeriod checks one period's record for job conservation and counts
// the placement and stepping work it reports. Frozen, lost and retired
// nodes do not step; the rest step once.
func (p *fleetPass) onPeriod(rec *fleet.ClusterRecord, queue []fleet.QueueEntry) {
	i := p.period
	p.period++
	p.admitted += rec.Admitted
	p.done += rec.Done
	p.dropped += rec.Dropped
	if rec.Period != i || rec.Arrivals != rec.Admitted+rec.Rejected ||
		rec.Running+rec.QueueLen+p.done+p.dropped != p.admitted ||
		len(queue) != rec.QueueLen || len(rec.Nodes) != p.cfg.Nodes ||
		rec.FleetEFU < 0 || rec.FleetEFU > 1 {
		p.bad[i] = true
	}

	// The placement pass of this period saw the queue left by the last
	// one plus this period's admissions (some still in backoff), and
	// the nodes the last period left with a free core, less those in
	// quarantine.
	offered := p.prevQueue + rec.Admitted + rec.Requeued
	views := max(p.candidates-rec.Quarantined, 0)
	s := p.split
	s.place.offered += float64(offered)
	s.place.placed += float64(rec.Placed)
	s.place.views += float64(views * offered)
	s.place.periods++

	live, candidates := 0, 0
	free := p.cfg.Machine.Cores - p.cfg.HPsPerNode
	for _, hb := range rec.Nodes {
		if hb.Frozen || hb.Lost || hb.Retired {
			continue
		}
		live++
		if !hb.Draining && hb.BECount < free {
			candidates++
		}
	}
	s.calls[layerSim] += float64(live * p.cfg.StepsPerPeriod)
	s.calls[layerMeter] += float64(live)
	s.calls[layerObserve] += float64(live)
	p.prevQueue, p.candidates = rec.QueueLen, candidates
}

func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digestString(string(b))
}

func digestIncidents(incs []*fleet.Incident) string {
	h := sha256.New()
	for _, inc := range incs {
		if err := inc.Dump(h); err != nil {
			return "undumpable: " + err.Error()
		}
	}
	return hexSum(h)
}
