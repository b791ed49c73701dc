package fleet

import (
	"math"

	"dicer/internal/app"
	"dicer/internal/machine"
)

// jobDemand tabulates one application's placement inputs on one
// machine: the bandwidth PredictJobGbps predicts at each (beWays,
// beCount) and the profile's MaxFootprint. Both are pure functions of a
// small domain — at most LLCWays+1 partition widths by Cores resident
// counts — so the placement pass, the candidate views and the migration
// engine look them up instead of re-walking the application's
// miss-ratio curves and performance model per candidate node.
// PredictJobGbps stays the definition: each cell is filled from it on
// first use, so a lookup is bit-identical to the call.
type jobDemand struct {
	m         machine.Machine
	prof      app.Profile
	footprint float64
	// gbps is indexed beWays*Cores + beCount over partition widths
	// 0..LLCWays and resident BE counts 0..Cores-1. Unfilled cells hold
	// NaN. At the default 20 ways and 10 cores that is 1.6 KiB per
	// application, and a fleet run fills most of it.
	gbps []float64
}

func newJobDemand(m machine.Machine, p app.Profile) *jobDemand {
	gbps := make([]float64, (m.LLCWays+1)*m.Cores)
	for i := range gbps {
		gbps[i] = math.NaN()
	}
	return &jobDemand{m: m, prof: p, footprint: p.MaxFootprint(), gbps: gbps}
}

// predict returns PredictJobGbps(d.m, d.prof, beWays, beCount), from the
// table when the arguments fall inside it.
func (d *jobDemand) predict(beWays, beCount int) float64 {
	if beWays < 0 || beWays > d.m.LLCWays || beCount < 0 || beCount >= d.m.Cores {
		return PredictJobGbps(d.m, d.prof, beWays, beCount)
	}
	cell := &d.gbps[beWays*d.m.Cores+beCount]
	if math.IsNaN(*cell) {
		*cell = PredictJobGbps(d.m, d.prof, beWays, beCount)
	}
	return *cell
}

// demandOn returns the job's demand table for machine m. A cluster binds
// every job it admits to its shared table for the job's application; a
// Job built outside a cluster, or read against another machine, gets a
// table of its own here on first use.
func (j *Job) demandOn(m *machine.Machine) *jobDemand {
	if d := j.demand; d != nil && d.m == *m {
		return d
	}
	j.demand = newJobDemand(*m, j.Profile)
	return j.demand
}

// demandOf returns the cluster's demand table for a catalog application,
// resolving the profile on the application's first admission; later
// admissions take the profile from the table.
func (c *Cluster) demandOf(name string) (*jobDemand, error) {
	if d, ok := c.demand[name]; ok {
		return d, nil
	}
	prof, err := app.ByName(name)
	if err != nil {
		return nil, err
	}
	d := newJobDemand(c.cfg.Machine, prof)
	c.demand[name] = d
	return d, nil
}
