package fleet

import (
	"fmt"
	"math/rand"

	"dicer/internal/app"
	"dicer/internal/machine"
)

// NodeView is the snapshot of one candidate node the scheduler sees:
// capacity, population, the last heartbeat's bandwidth (plus the
// predicted demand of placements already made this period), and the BE
// partition geometry the pressure model needs. The cluster only builds
// views for healthy nodes with a free core, so feasibility beyond that
// is the scheduler's own policy.
type NodeView struct {
	ID        int
	FreeCores int
	BECount   int
	// BEWays is the BE partition width; with it the pressure model knows
	// how many bytes the BEs actually share.
	BEWays int
	// TotalGbps is the node's most recent measured memory bandwidth,
	// inflated by the predicted demand of same-period placements.
	TotalGbps float64
	// BEFootprint sums the running BE jobs' cacheable footprints, each
	// capped at the BE partition size — the LLC pressure already there.
	BEFootprint float64
	// HPGroupPressure is the worst HP CLOS group's LLC overcommit on a
	// multi-HP node (member footprints over group capacity, beyond 1×).
	// Single-HP nodes report zero, keeping the legacy score unchanged.
	HPGroupPressure float64
	Machine         machine.Machine
}

// Scheduler places queued jobs onto candidate nodes. Pick returns the
// chosen node's position in views and whether any node is acceptable;
// returning ok=false queues the job for a later period. Implementations
// must be deterministic given their construction arguments (the random
// scheduler owns a seeded stream).
type Scheduler interface {
	Name() string
	Pick(job *Job, views []NodeView) (idx int, ok bool)
}

// NewScheduler builds a scheduler by name: "random", "least-loaded" or
// "headroom". seed feeds the random scheduler's stream (ignored by the
// deterministic ones).
func NewScheduler(name string, seed int64) (Scheduler, error) {
	switch name {
	case "random":
		return &RandomScheduler{rng: rand.New(rand.NewSource(seed))}, nil
	case "least-loaded":
		return LeastLoadedScheduler{}, nil
	case "headroom":
		return HeadroomScheduler{}, nil
	}
	return nil, fmt.Errorf("fleet: unknown scheduler %q (have random, least-loaded, headroom)", name)
}

// SchedulerNames lists the built-in schedulers.
func SchedulerNames() []string { return []string{"random", "least-loaded", "headroom"} }

// RandomScheduler places uniformly at random among candidates — the
// baseline any informed scheduler must beat.
type RandomScheduler struct {
	rng *rand.Rand
}

// Name implements Scheduler.
func (*RandomScheduler) Name() string { return "random" }

// Pick implements Scheduler.
func (s *RandomScheduler) Pick(_ *Job, views []NodeView) (int, bool) {
	if len(views) == 0 {
		return 0, false
	}
	return s.rng.Intn(len(views)), true
}

// LeastLoadedScheduler places on the node with the fewest running BE
// jobs (ties to the lowest node ID) — load balancing blind to what the
// jobs actually are.
type LeastLoadedScheduler struct{}

// Name implements Scheduler.
func (LeastLoadedScheduler) Name() string { return "least-loaded" }

// Pick implements Scheduler.
func (LeastLoadedScheduler) Pick(_ *Job, views []NodeView) (int, bool) {
	best, ok := 0, false
	for i, v := range views {
		if !ok || v.BECount < views[best].BECount ||
			(v.BECount == views[best].BECount && v.ID < views[best].ID) {
			best, ok = i, true
		}
	}
	return best, ok
}

// HeadroomScheduler is the informed placer: it predicts the job's memory
// bandwidth demand from its miss-ratio curve at the share of the BE
// partition it would get, refuses nodes the prediction would push past
// the link's queueing knee, and scores the rest by remaining bandwidth
// headroom minus an LLC-overcommit penalty (the job's cacheable
// footprint stacked onto what the resident BEs already demand of the BE
// partition). Highest score wins — effectively worst-fit on bandwidth,
// so streamers spread out instead of saturating one link, with
// cache-hungry jobs steered away from crowded BE partitions.
type HeadroomScheduler struct{}

// pressureWeight converts LLC overcommit (fraction of the BE partition
// demanded beyond 1×) into bandwidth-headroom-fraction units.
const pressureWeight = 0.15

// Name implements Scheduler.
func (HeadroomScheduler) Name() string { return "headroom" }

// Pick implements Scheduler. Views are scored in place, so no NodeView
// (nor the Machine it carries) is copied per candidate.
func (HeadroomScheduler) Pick(job *Job, views []NodeView) (int, bool) {
	best, ok := 0, false
	bestScore := 0.0
	for i := range views {
		v := &views[i]
		score, feasible := headroomScore(job, v)
		if !feasible {
			continue
		}
		if !ok || score > bestScore ||
			(score == bestScore && v.ID < views[best].ID) {
			best, bestScore, ok = i, score, true
		}
	}
	return best, ok
}

// headroomScore scores one candidate; feasible is false when the
// predicted placement crosses the saturation knee. The job's bandwidth
// and footprint come from its demand table.
func headroomScore(job *Job, v *NodeView) (score float64, feasible bool) {
	d := job.demandOn(&v.Machine)
	link := &v.Machine.Link
	kneeGbps := link.Knee * link.CapacityGBps
	predicted := v.TotalGbps + d.predict(v.BEWays, v.BECount)
	if predicted > kneeGbps {
		return 0, false
	}
	score = (kneeGbps - predicted) / link.CapacityGBps

	beBytes := v.Machine.WaysBytes(v.BEWays)
	if beBytes > 0 {
		fp := d.footprint
		if fp > beBytes {
			fp = beBytes
		}
		if overcommit := (v.BEFootprint+fp)/beBytes - 1; overcommit > 0 {
			score -= pressureWeight * overcommit
		}
	}
	// Thrashing HP groups on multi-HP nodes repel placements the same
	// way: their controllers will claw ways back from BE, so the
	// advertised partition overstates what the job would really get.
	score -= pressureWeight * v.HPGroupPressure
	return score, true
}

// PredictJobGbps predicts the memory bandwidth (Gbps) a job would add to
// a node, from its miss-ratio curve evaluated at an equal share of the
// BE partition among beCount resident jobs plus this one, at unloaded
// memory latency. The worst phase bounds the demand — admission should
// be conservative about streamers. It is the definition the fleet's
// per-application demand tables are filled from.
func PredictJobGbps(m machine.Machine, p app.Profile, beWays, beCount int) float64 {
	share := m.WaysBytes(beWays)
	if beCount+1 > 0 {
		share /= float64(beCount + 1)
	}
	worst := 0.0
	for i := range p.Phases {
		ph := &p.Phases[i]
		miss := ph.Curve.MissRatio(share)
		perf := app.PhasePerfMissRef(&m, ph, miss, 1, 1)
		if gbps := perf.BytesPerSec * 8 / 1e9; gbps > worst {
			worst = gbps
		}
	}
	return worst
}
