package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"
)

// Layer entry functions as they appear in CPU profile stacks. A profile
// sample belongs to the layer whose entry function is outermost on its
// stack; the sub-layers below node stepping and placement are counted
// wherever they appear.
const (
	fnClusterStep  = "dicer/internal/fleet.(*Cluster).Step"
	fnStepPeriod   = "dicer/internal/fleet.(*Node).StepPeriod"
	fnHeadroomPick = "dicer/internal/fleet.HeadroomScheduler.Pick"
	fnPredict      = "dicer/internal/fleet.PredictJobGbps"
	fnNodePlace    = "dicer/internal/fleet.(*Node).Place"
	// The migration pass of the control loop predicts bandwidth too; that
	// time belongs to the control loop, not to placement.
	fnMigrate      = "dicer/internal/fleet.(*Cluster).migrateLocked"
	fnRunnerStep   = "dicer/internal/sim.(*Runner).Step"
	fnMeterSample  = "dicer/internal/resctrl.(*Meter).Sample"
	fnObserve      = "dicer/internal/core.(*Controller).Observe"
	fnMultiObserve = "dicer/internal/core.(*MultiController).Observe"
	fnMissRatio    = "dicer/internal/mrc.Curve.MissRatio"
	prefixApp      = "dicer/internal/app."
	prefixPar      = "dicer/internal/par."
)

// Layer names, as the per-layer metrics carry them.
const (
	layerPlace    = "fleet.place"
	layerNodeStep = "fleet.nodestep"
	layerOther    = "fleet.step.other"
	layerNone     = "unattributed"
	layerSim      = "sim.Step"
	layerMeter    = "resctrl.Sample"
	layerObserve  = "core.Observe"
	layerApp      = "app.perf"
	layerMRC      = "mrc.MissRatio"
)

// shareLayers are the layers whose share of the sampled time is reported.
var shareLayers = []string{layerPlace, layerNodeStep, layerOther, layerNone,
	layerSim, layerMeter, layerObserve, layerApp, layerMRC}

var (
	// placeFuncs enter the placement pass: the scheduler's pick, the
	// bandwidth prediction, the placement itself and the candidate views.
	placeFuncs = map[string]bool{
		fnHeadroomPick:                      true,
		fnPredict:                           true,
		fnNodePlace:                         true,
		"dicer/internal/fleet.(*Node).view": true,
	}
	// traceFuncs exist only because the traced pass asks for per-period
	// records; their cost is tracing overhead, not a layer's.
	traceFuncs = map[string]bool{
		"dicer/internal/fleet.(*ClusterRecord).clone":         true,
		"dicer/internal/fleet.(*Cluster).queueSnapshotLocked": true,
	}
)

// layerSplit accumulates, per layer, the nanoseconds spent in it and the
// nanoseconds its share is taken of, plus call counts and the CPU
// samples each entry function was seen in.
type layerSplit struct {
	ns    map[string]float64
	base  map[string]float64
	calls map[string]float64
	hits  map[string]int64
	// sampledNS is the CPU time the profiles sampled.
	sampledNS float64
	passes    float64
	place     placeCounts
}

// placeCounts are the placement pass's counts, read from per-period
// cluster records.
type placeCounts struct {
	periods, offered, placed float64
	// views sums, over periods, the candidate nodes at the start of the
	// placement pass times the jobs offered to it.
	views float64
}

func newLayerSplit() *layerSplit {
	return &layerSplit{
		ns:    map[string]float64{},
		base:  map[string]float64{},
		calls: map[string]float64{},
		hits:  map[string]int64{},
	}
}

func (s *layerSplit) add(o *layerSplit) {
	for k, v := range o.ns {
		s.ns[k] += v
	}
	for k, v := range o.base {
		s.base[k] += v
	}
	for k, v := range o.calls {
		s.calls[k] += v
	}
	for k, v := range o.hits {
		s.hits[k] += v
	}
	s.sampledNS += o.sampledNS
	s.passes += o.passes
	s.place.periods += o.place.periods
	s.place.offered += o.place.offered
	s.place.placed += o.place.placed
	s.place.views += o.place.views
}

// attribute adds a CPU profile: each sample's time goes to exactly one
// of placement, node stepping, the rest of Cluster.Step, or
// unattributed, and to every sub-layer on its stack.
func (s *layerSplit) attribute(p *cpuProfile) {
	var total float64
	for _, smp := range p.samples {
		ns := float64(smp.ns)
		total += ns
		top, inCluster, traceCost := "", false, false
		sub := map[string]bool{}
		for i := len(smp.stack) - 1; i >= 0; i-- { // root first
			fn := smp.stack[i]
			if isEntry(fn) {
				s.hits[fn]++
			}
			switch {
			case traceFuncs[fn]:
				traceCost = true
			case top != "":
			case placeFuncs[fn]:
				top = layerPlace
			case fn == fnStepPeriod:
				top = layerNodeStep
			case fn == fnMigrate:
				top = layerOther
			}
			if fn == fnClusterStep || strings.HasPrefix(fn, prefixPar) {
				inCluster = true
			}
			switch {
			case fn == fnRunnerStep:
				sub[layerSim] = true
			case fn == fnMeterSample:
				sub[layerMeter] = true
			case fn == fnObserve || fn == fnMultiObserve:
				sub[layerObserve] = true
			case fn == fnMissRatio:
				sub[layerMRC] = true
			}
			if strings.HasPrefix(fn, prefixApp) {
				sub[layerApp] = true
			}
		}
		switch {
		case traceCost:
			top = layerNone
		case top == "" && inCluster:
			top = layerOther
		case top == "":
			top = layerNone
		}
		s.ns[top] += ns
		for l := range sub {
			s.ns[l] += ns
		}
	}
	for _, l := range shareLayers {
		s.base[l] += total
	}
	s.sampledNS += total
}

func isEntry(fn string) bool {
	switch fn {
	case fnClusterStep, fnStepPeriod, fnHeadroomPick, fnPredict, fnNodePlace,
		fnRunnerStep, fnMeterSample, fnObserve, fnMultiObserve, fnMissRatio:
		return true
	}
	return false
}

// metrics returns the per-layer metrics of the split.
func (s *layerSplit) metrics() map[string]metric {
	m := map[string]metric{}
	for _, l := range shareLayers {
		m[l+".share"] = metric{ratio(s.ns[l], s.base[l]), "ratio"}
	}
	for _, l := range []string{layerSim, layerMeter, layerObserve} {
		m[l+".ns_per_call"] = metric{ratio(s.ns[l], s.calls[l]), "ns"}
	}
	for _, l := range []string{layerSim, layerMeter} {
		m[l+".calls"] = metric{ratio(s.calls[l], s.passes), "count"}
	}
	m["fleet.place.picks"] = metric{ratio(s.place.offered, s.place.periods), "1/period"}
	m["fleet.place.views_per_pick"] = metric{ratio(s.place.views, s.place.offered), "count"}
	m["fleet.place.success_ratio"] = metric{ratio(s.place.placed, s.place.offered), "ratio"}
	return m
}

// profiler captures one CPU profile.
type profiler struct {
	buf bytes.Buffer
}

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

func (p *profiler) stop() (*cpuProfile, error) {
	pprof.StopCPUProfile()
	return parseCPUProfile(p.buf.Bytes())
}
