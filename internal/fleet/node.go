package fleet

import (
	"fmt"
	"math/bits"

	"dicer/internal/app"
	"dicer/internal/cluster"
	"dicer/internal/core"
	"dicer/internal/machine"
	"dicer/internal/metrics"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

// Job is one admitted best-effort job: a catalog application that
// occupies one core of one node for a bounded number of stepped
// monitoring periods. Jobs move through the fleet as arrival → queue →
// placement → completion, possibly cycling back through the queue when
// their node is lost.
type Job struct {
	ID      int
	Profile app.Profile
	// AloneIPC is the profile's full-LLC alone-run reference, resolved
	// at admission; per-period normalised IPCs (and thus fleet EFU) are
	// computed against it.
	AloneIPC float64
	// ArrivalPeriod is when the job entered the system; PlacedPeriod is
	// when it first landed on a node (-1 while queued).
	ArrivalPeriod int
	PlacedPeriod  int
	// RemainingPeriods counts down the service time over stepped periods
	// (a frozen node does not step, so its jobs pause).
	RemainingPeriods int
	// Core is the node core the job runs on (-1 while queued).
	Core int
	// Attempts counts placements (first placement plus re-placements
	// after node loss); NotBefore gates backoff-delayed retries.
	Attempts  int
	NotBefore int

	// demand is the job's placement-input table (see demandOn).
	demand *jobDemand
}

// NodeConfig describes one fleet node: a simulated server running one or
// more HP applications under a node-local consolidation policy.
type NodeConfig struct {
	ID      int
	Machine machine.Machine
	// HPs are the node's high-priority applications, attached to cores
	// 0..len(HPs)-1. One HP runs the node policy over the two-CLOS HP/BE
	// split; more than one runs the grouped DICER controller with an
	// LFOC-style clustered plan.
	HPs []app.Profile
	// HPAloneIPCs are the HPs' full-LLC alone-run IPCs (the SLO and
	// normalisation references), index-matched to HPs.
	HPAloneIPCs []float64
	// CLOSBudget is the CLOS-id budget for multi-HP nodes (HP groups plus
	// the BE partition). Ignored with a single HP, which always uses the
	// two-CLOS split.
	CLOSBudget int
	// Policy is the node-local policy: "UM", "CT" or "DICER". Multi-HP
	// nodes require DICER (the grouped controller).
	Policy string
	// DICER configures the controller when Policy is "DICER".
	DICER core.Config
	// SLO is every HP's target fraction of alone performance.
	SLO            float64
	PeriodSec      float64
	StepsPerPeriod int
}

// Heartbeat is one node's per-period status report, the unit the cluster
// aggregates into its trace records and Prometheus metrics. A frozen
// node misses heartbeats: the cluster synthesises one with Frozen set
// and no readings, so the record stream stays dense and the scheduler's
// health view is explicit in the trace.
type Heartbeat struct {
	Node   int  `json:"node"`
	Frozen bool `json:"frozen,omitempty"`
	Lost   bool `json:"lost,omitempty"`
	// Draining marks a node the autoscaler is emptying (no new
	// placements; running jobs finish); Retired marks one removed after
	// draining empty. Static fleets never set either.
	Draining bool `json:"draining,omitempty"`
	Retired  bool `json:"retired,omitempty"`

	// HPIPC / HPNorm describe the node's worst-normalised HP (the only
	// one, on single-HP nodes). HPGroups is the number of HP CLOS groups
	// the grouped controller runs (omitted on single-HP nodes).
	HPIPC     float64 `json:"hp_ipc,omitempty"`
	HPNorm    float64 `json:"hp_norm,omitempty"`
	HPGroups  int     `json:"hp_groups,omitempty"`
	BECount   int     `json:"be_count"`
	HPWays    int     `json:"hp_ways,omitempty"`
	HPBWGbps  float64 `json:"hp_bw_gbps,omitempty"`
	TotalGbps float64 `json:"total_bw_gbps,omitempty"`
	// Saturated reports the link past its queueing knee this period.
	Saturated bool `json:"saturated,omitempty"`
	// SLOViolated reports the HP below SLO × alone this period.
	SLOViolated bool `json:"slo_violated,omitempty"`
	// NormSum is the sum of normalised IPCs of every running process
	// (HP + BE jobs); the cluster divides by fleet capacity for EFU.
	NormSum float64 `json:"norm_sum,omitempty"`
}

// Node is one simulated server of the cluster.
type Node struct {
	cfg    NodeConfig
	runner *sim.Runner
	sys    *resctrl.Emu
	pol    policy.Policy
	meter  *resctrl.Meter

	// hpCount HPs occupy cores 0..hpCount-1; ctl is the node's DICER
	// controller (nil for UM and CT), grouped when hpCount > 1.
	hpCount int
	ctl     *core.Controller
	beClos  int

	// jobs indexes running jobs by core (nil = free); cores
	// hpCount..Cores-1 hold BE jobs. jobFP holds each running job's
	// MaxFootprint, taken from its demand table at placement, for view.
	jobs    []*Job
	jobFP   []float64
	beCount int

	frozenUntil int // exclusive period bound; frozen while period < this
	lost        bool

	// draining/retired are autoscaler lifecycle states: a draining node
	// accepts no placements and retires once empty; a retired node no
	// longer steps and its capacity leaves the fleet EFU denominator.
	draining bool
	retired  bool

	// viewFP is view's per-group footprint scratch for a grouped
	// controller, pooled so the placement pass allocates nothing per
	// period; hpFP caches each HP's MaxFootprint for it.
	viewFP []float64
	hpFP   []float64

	// Flight-recorder tap, written by the controller's chained trace
	// hook during Observe (inside the node's own stepping slot, so no
	// synchronisation) and drained serially by the cluster's flight
	// pass. flightState persists across periods — it is the state
	// machine's position, informative even on periods without decisions
	// — while cause/count/recluster reset every drain.
	flightState  string
	flightCause  string
	flightCount  int
	flightReclus bool
}

// NewNode builds a node, attaches its HPs on cores 0..len(HPs)-1 and
// runs the policy's Setup. A single HP runs the named policy (UM, CT or
// DICER) over the two-CLOS HP/BE split; several HPs run the grouped
// DICER controller, whose clustered plan moves their cores into CLOS
// groups, with BE jobs sharing the partition at CLOS budget-1.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.SLO <= 0 || cfg.SLO > 1 {
		return nil, fmt.Errorf("fleet: node %d SLO %g outside (0,1]", cfg.ID, cfg.SLO)
	}
	k := len(cfg.HPs)
	if k == 0 {
		return nil, fmt.Errorf("fleet: node %d needs at least one HP", cfg.ID)
	}
	if len(cfg.HPAloneIPCs) != k {
		return nil, fmt.Errorf("fleet: node %d has %d HPs but %d alone references", cfg.ID, k, len(cfg.HPAloneIPCs))
	}
	for i, v := range cfg.HPAloneIPCs {
		if v <= 0 {
			return nil, fmt.Errorf("fleet: node %d HP %d needs a positive alone-IPC reference", cfg.ID, i)
		}
	}
	if cfg.Machine.Cores <= k {
		return nil, fmt.Errorf("fleet: node %d has %d cores for %d HPs + BEs", cfg.ID, cfg.Machine.Cores, k)
	}
	isDICER := cfg.Policy == "DICER" || cfg.Policy == "dicer"
	numClos := 2
	if k > 1 {
		if !isDICER {
			return nil, fmt.Errorf("fleet: node %d runs %d HPs, which requires the DICER policy (got %q)", cfg.ID, k, cfg.Policy)
		}
		if numClos = cfg.CLOSBudget; numClos == 0 {
			numClos = 16
		}
		if numClos < 2 {
			return nil, fmt.Errorf("fleet: node %d CLOS budget %d < 2", cfg.ID, numClos)
		}
	}
	r, err := sim.New(cfg.Machine, numClos)
	if err != nil {
		return nil, err
	}
	specs := make([]cluster.AppSpec, k)
	hpFP := make([]float64, k)
	for i, hp := range cfg.HPs {
		hpFP[i] = hp.MaxFootprint()
		if err := r.Attach(i, policy.HPClos, hp); err != nil {
			return nil, err
		}
		ph := r.Proc(i).PhaseRef()
		specs[i] = cluster.AppSpec{
			Name: hp.Name, Core: i, SLO: cfg.SLO,
			Curve: ph.Curve, APKI: ph.APKI,
		}
	}
	var pol policy.Policy
	switch p, builtin := policy.ByName(cfg.Policy); {
	case k > 1:
		pol, err = core.NewMulti(core.MultiConfig{
			Group:      cfg.DICER,
			WayBytes:   cfg.Machine.WaysBytes(1),
			CLOSBudget: numClos,
		}, specs)
	case builtin:
		pol = p
	case isDICER:
		pol, err = core.New(cfg.DICER)
	default:
		err = fmt.Errorf("fleet: unknown node policy %q (have UM, CT, DICER)", cfg.Policy)
	}
	if err != nil {
		return nil, err
	}
	sys := resctrl.NewEmu(r, false)
	if err := pol.Setup(sys); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		runner:  r,
		sys:     sys,
		pol:     pol,
		meter:   resctrl.NewMeter(sys),
		hpCount: k,
		ctl:     core.ControllerOf(pol),
		beClos:  policy.BEClos,
		jobs:    make([]*Job, cfg.Machine.Cores),
		jobFP:   make([]float64, cfg.Machine.Cores),
		viewFP:  make([]float64, k),
		hpFP:    hpFP,
	}
	if n.ctl != nil {
		n.beClos = n.ctl.BEClos()
	}
	return n, nil
}

// ID returns the node index.
func (n *Node) ID() int { return n.cfg.ID }

// FreeCores returns the number of cores available for BE jobs.
func (n *Node) FreeCores() int { return n.cfg.Machine.Cores - n.hpCount - n.beCount }

// BECount returns the number of running BE jobs.
func (n *Node) BECount() int { return n.beCount }

// Lost reports whether the node has been lost to chaos.
func (n *Node) Lost() bool { return n.lost }

// Draining reports whether the autoscaler is emptying the node.
func (n *Node) Draining() bool { return n.draining }

// Retired reports whether the autoscaler has removed the node.
func (n *Node) Retired() bool { return n.retired }

// Frozen reports whether the node is frozen at the given period.
func (n *Node) Frozen(period int) bool { return !n.lost && period < n.frozenUntil }

// Freeze suspends the node for the given number of periods starting at
// period: it will not step and will miss heartbeats until it thaws.
func (n *Node) Freeze(period, periods int) {
	if until := period + periods; until > n.frozenUntil {
		n.frozenUntil = until
	}
}

// Lose kills the node permanently and returns its orphaned jobs for
// re-placement.
func (n *Node) Lose() []*Job {
	n.lost = true
	var orphans []*Job
	for c, j := range n.jobs {
		if j == nil {
			continue
		}
		_ = n.runner.Detach(c)
		j.Core = -1
		n.jobs[c] = nil
		orphans = append(orphans, j)
	}
	n.beCount = 0
	return orphans
}

// Place attaches a BE job to the lowest free core. The meter is
// rebaselined so the next period's readings start from the new
// population's counters.
func (n *Node) Place(j *Job, period int) error {
	if n.lost {
		return fmt.Errorf("fleet: placing job %d on lost node %d", j.ID, n.cfg.ID)
	}
	if n.Frozen(period) {
		return fmt.Errorf("fleet: placing job %d on frozen node %d", j.ID, n.cfg.ID)
	}
	for c := n.hpCount; c < len(n.jobs); c++ {
		if n.jobs[c] == nil {
			if err := n.runner.Attach(c, n.beClos, j.Profile); err != nil {
				return err
			}
			n.jobs[c] = j
			n.jobFP[c] = j.demandOn(&n.cfg.Machine).footprint
			n.beCount++
			j.Core = c
			if j.PlacedPeriod < 0 {
				j.PlacedPeriod = period
			}
			n.meter.Rebaseline()
			return nil
		}
	}
	return fmt.Errorf("fleet: node %d has no free core for job %d", n.cfg.ID, j.ID)
}

// StepPeriod advances the node by one monitoring period: step the
// simulator, sample the meter, let the policy observe, then account job
// progress. Completed jobs are detached in place; the count comes back
// with the heartbeat (the cluster only aggregates counts, so the old
// completed-jobs slice was a per-period allocation for nothing). Not
// called for frozen, lost or retired nodes.
func (n *Node) StepPeriod(period int) (Heartbeat, int, error) {
	dt := n.cfg.PeriodSec / float64(n.cfg.StepsPerPeriod)
	for s := 0; s < n.cfg.StepsPerPeriod; s++ {
		n.runner.Step(dt)
	}
	p := n.meter.Sample()
	if err := n.pol.Observe(n.sys, p); err != nil {
		return Heartbeat{Node: n.cfg.ID}, 0, fmt.Errorf("fleet: node %d policy %s: %w", n.cfg.ID, n.pol.Name(), err)
	}

	hb := Heartbeat{Node: n.cfg.ID, BECount: n.beCount}
	// The headline HP fields report the worst-normalised HP (on a
	// single-HP node, the only one).
	worst := 0
	for i := 0; i < n.hpCount; i++ {
		ipc := p.CoreIPC(i)
		norm := metrics.NormIPC(ipc, n.cfg.HPAloneIPCs[i])
		hb.NormSum += norm
		if i == 0 || norm < hb.HPNorm {
			worst, hb.HPNorm = i, norm
		}
		if !metrics.SLOAchieved(ipc, n.cfg.HPAloneIPCs[i], n.cfg.SLO) {
			hb.SLOViolated = true
		}
	}
	hb.HPIPC = p.CoreIPC(worst)
	if n.grouped() {
		hb.HPGroups = n.ctl.NumGroups()
		for gi := 0; gi < n.ctl.NumGroups(); gi++ {
			hb.HPWays += n.ctl.GroupWays(gi)
			hb.HPBWGbps += p.GroupBW(gi)
		}
	} else {
		hb.HPWays = bits.OnesCount64(n.sys.CBM(policy.HPClos))
		hb.HPBWGbps = p.GroupBW(policy.HPClos)
	}
	hb.TotalGbps = p.TotalGbps
	link := n.cfg.Machine.Link
	hb.Saturated = p.TotalGbps > link.Knee*link.CapacityGBps

	// Job accounting reads only the sampled period p, so detaching a
	// finished job inside the walk observes the same readings the old
	// collect-then-detach pass did.
	done := 0
	for c := n.hpCount; c < len(n.jobs); c++ {
		j := n.jobs[c]
		if j == nil {
			continue
		}
		hb.NormSum += metrics.NormIPC(p.CoreIPC(c), j.AloneIPC)
		j.RemainingPeriods--
		if j.RemainingPeriods <= 0 {
			_ = n.runner.Detach(c)
			n.jobs[c] = nil
			j.Core = -1
			n.beCount--
			done++
		}
	}
	if done > 0 {
		n.meter.Rebaseline()
	}
	return hb, done, nil
}

// evict detaches the BE job on the given core for re-placement
// elsewhere: the migration engine's primitive. The meter rebaselines so
// the next period's readings start from the reduced population.
func (n *Node) evict(core int) *Job {
	j := n.jobs[core]
	_ = n.runner.Detach(core)
	n.jobs[core] = nil
	j.Core = -1
	n.beCount--
	n.meter.Rebaseline()
	return j
}

// beWays returns the BE partition's current width in ways.
func (n *Node) beWays() int { return bits.OnesCount64(n.sys.CBM(n.beClos)) }

// grouped reports whether the node runs the grouped DICER controller.
func (n *Node) grouped() bool { return n.ctl != nil && n.ctl.Grouped() }

// Repack re-clusters a multi-HP node's cache plan on demand (the
// autoscaler's repartition-first action), reporting whether the plan
// changed. Single-HP nodes have nothing to repack.
func (n *Node) Repack() (bool, error) {
	if n.ctl == nil {
		return false, nil
	}
	return n.ctl.Replan()
}

// armFlightTap chains the flight recorder's provenance tap onto the
// node controller's decision stream: each event overwrites the tap with
// the latest state and cause (one closure per node, allocated once at
// arm time; the per-event cost is two string-header stores). Policies
// without a controller (UM, CT) record no provenance.
func (n *Node) armFlightTap() {
	if n.ctl == nil {
		return
	}
	n.ctl.ChainTrace(func(e core.Event) {
		n.flightState = e.State
		n.flightCause = e.Cause
		n.flightCount++
		if e.Kind == core.EventRecluster {
			n.flightReclus = true
		}
	})
}

// takeFlight drains the provenance tap into a flight entry and resets
// the per-period fields.
func (n *Node) takeFlight(e *FlightEntry) {
	e.State = n.flightState
	e.Cause = n.flightCause
	e.Decisions = n.flightCount
	e.Reclustered = n.flightReclus
	n.flightCause, n.flightCount, n.flightReclus = "", 0, false
}

// view builds the scheduler's snapshot of this node. lastTotalGbps is
// the node's most recent heartbeat bandwidth. The cluster builds each
// candidate's view once per period and folds same-period placements
// into it in place, so the snapshot must only depend on node state and
// the last heartbeat.
func (n *Node) view(lastTotalGbps float64) NodeView {
	m := &n.cfg.Machine
	beWays := n.beWays()
	v := NodeView{
		ID:        n.cfg.ID,
		FreeCores: n.FreeCores(),
		BECount:   n.beCount,
		BEWays:    beWays,
		TotalGbps: lastTotalGbps,
		Machine:   *m,
	}
	beBytes := m.WaysBytes(beWays)
	for c := n.hpCount; c < len(n.jobs); c++ {
		if n.jobs[c] != nil {
			fp := n.jobFP[c]
			if fp > beBytes {
				fp = beBytes
			}
			v.BEFootprint += fp
		}
	}
	// Multi-HP nodes expose their worst HP group's LLC overcommit: the
	// clustered plan may pool incompatible HPs, and a node whose HP
	// groups are already thrashing is a poor host for more cache
	// pressure. Single-HP nodes report zero — the single-HP controller
	// regulates its one HP directly, and their score must not move.
	if n.grouped() {
		k := n.ctl.NumGroups()
		fp := n.viewFP[:k]
		for i := range fp {
			fp[i] = 0
		}
		for i, f := range n.hpFP {
			fp[n.ctl.GroupOf(i)] += f
		}
		for gi := 0; gi < k; gi++ {
			bytes := m.WaysBytes(n.ctl.GroupWays(gi))
			if bytes <= 0 {
				continue
			}
			if over := fp[gi]/bytes - 1; over > v.HPGroupPressure {
				v.HPGroupPressure = over
			}
		}
	}
	return v
}
