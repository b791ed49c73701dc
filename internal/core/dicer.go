// Package core implements DICER, the dynamic cache-partitioning controller
// of the paper (§3, Listings 1–3). DICER co-locates one high-priority (HP)
// application with best-effort (BE) applications and, once per monitoring
// period, adapts the way-based LLC partition between them:
//
//   - It starts exactly like Cache-Takeover: HP owns all but one way
//     (CT_Favoured is assumed true).
//   - If total memory bandwidth exceeds a threshold, the link is
//     saturated: the workload is CT-Thwarted, and DICER *samples*
//     decreasing HP allocations to find the one with the highest HP IPC
//     (optimal_allocation / IPC_opt), then enforces it.
//   - Otherwise it *optimises*: a bandwidth spike against the geometric
//     mean of the previous three periods signals a phase change (Eq. 2)
//     and triggers a reset; stable IPC (Eq. 3) lets DICER shrink HP by one
//     way in favour of the BEs; improved IPC holds; degraded IPC resets.
//   - A *reset* re-applies the best-known allocation (CT's for CT-Favoured
//     workloads, optimal_allocation for CT-Thwarted ones) and validates it
//     over one monitoring period, rolling back or re-sampling as Listing 3
//     prescribes.
//
// The controller is written against the resctrl.System interface and holds
// no simulator state: it sees only per-period IPC and bandwidth readings,
// the same observables a production deployment reads from RDT counters.
package core

import (
	"fmt"

	"dicer/internal/cache"
	"dicer/internal/cluster"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
)

// Config holds DICER's tunables. Defaults (DefaultConfig) are the paper's
// Table 1 values.
type Config struct {
	// PeriodSec is the monitoring-period length T. The controller itself
	// is driven externally once per period; this value is used only for
	// reporting.
	PeriodSec float64
	// BWThresholdGbps is MemBW_threshold: total memory bandwidth above
	// which the link counts as saturated (Table 1: 50 Gbps).
	BWThresholdGbps float64
	// PhaseThreshold is Eq. 2's spike factor over the geometric mean of
	// the previous three periods' HP bandwidth (Table 1: 30 %).
	PhaseThreshold float64
	// StabilityAlpha is Eq. 3's a: IPC within ±a of the previous period
	// counts as stable (Table 1: 5 %).
	StabilityAlpha float64
	// NearOptTolerance decides "performance_near_opt" in the CT-T reset
	// validation: IPC within this fraction below IPC_opt passes.
	NearOptTolerance float64
	// SampleStep is the way decrement between successive sampling
	// allocations (Listing 1's decreasing partition sizes).
	SampleStep int
	// MinHPWays / MinBEWays bound the moving partition. CAT requires at
	// least one way per mask.
	MinHPWays int
	MinBEWays int

	// DisablePhaseDetection turns off Eq. 2 (ablation: how much does the
	// phase detector contribute?). Phase-driven IPC drops then reach the
	// reset path only through the performance check.
	DisablePhaseDetection bool
	// DisableSaturationHandling turns off the bandwidth-saturation check
	// and allocation sampling, reducing DICER to a pure IPC-driven
	// partition optimiser — approximately the DCP-QoS scheme the paper
	// cites as lacking saturation support (ablation).
	DisableSaturationHandling bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		PeriodSec:        1.0,
		BWThresholdGbps:  50,
		PhaseThreshold:   0.30,
		StabilityAlpha:   0.05,
		NearOptTolerance: 0.05,
		SampleStep:       2,
		MinHPWays:        1,
		MinBEWays:        1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PeriodSec <= 0 {
		return fmt.Errorf("dicer: non-positive period %g", c.PeriodSec)
	}
	if c.BWThresholdGbps <= 0 {
		return fmt.Errorf("dicer: non-positive bandwidth threshold %g", c.BWThresholdGbps)
	}
	if c.PhaseThreshold <= 0 {
		return fmt.Errorf("dicer: non-positive phase threshold %g", c.PhaseThreshold)
	}
	if c.StabilityAlpha <= 0 || c.StabilityAlpha >= 1 {
		return fmt.Errorf("dicer: stability alpha %g outside (0,1)", c.StabilityAlpha)
	}
	if c.NearOptTolerance <= 0 || c.NearOptTolerance >= 1 {
		return fmt.Errorf("dicer: near-opt tolerance %g outside (0,1)", c.NearOptTolerance)
	}
	if c.SampleStep < 1 {
		return fmt.Errorf("dicer: sample step %d < 1", c.SampleStep)
	}
	if c.MinHPWays < 1 || c.MinBEWays < 1 {
		return fmt.Errorf("dicer: minimum ways must be >= 1 (hp %d, be %d)", c.MinHPWays, c.MinBEWays)
	}
	return nil
}

// state is the controller's per-period mode.
type state int

const (
	stOptimise state = iota // Listing 2: allocation_optimisation
	stSampling              // Listing 1: allocation_sampling in progress
	stValidate              // Listing 3: one-period reset validation
)

func (s state) String() string {
	switch s {
	case stOptimise:
		return "optimise"
	case stSampling:
		return "sampling"
	case stValidate:
		return "validate"
	}
	return "unknown"
}

// EventKind labels a controller decision for tracing.
type EventKind string

// Controller decisions, in the vocabulary of the paper's listings.
const (
	EventShrink      EventKind = "shrink"       // stable IPC: HP loses one way
	EventHold        EventKind = "hold"         // improved IPC: keep allocation
	EventReset       EventKind = "reset"        // degraded IPC or phase change
	EventPhaseChange EventKind = "phase-change" // Eq. 2 fired
	EventSample      EventKind = "sample"       // sampling step applied
	EventSampleDone  EventKind = "sample-done"  // optimal allocation enforced
	EventRollback    EventKind = "rollback"     // CT-F validation failed
	EventValidated   EventKind = "validated"    // reset validation passed
	EventSaturated   EventKind = "saturated"    // bandwidth threshold crossed
)

// Cause maps a decision to the provenance taxonomy: the compact
// operator-facing answer to "why did the mask change this period".
// Decisions that adjust the partition name their mechanism
// (saturation-detected, sampling, shrink-step, phase-reset,
// perf-reset); decisions that keep or confirm it name the evidence
// (steady, validated, rollback). The observability recorder annotates
// every trace record with the period's final cause — overridden by
// guard-veto when the invariant guard intervened and chaos-masked when
// an injected fault swallowed the actuation — so every mask change in
// a trace is explainable without re-deriving the state machine.
func (k EventKind) Cause() string {
	switch k {
	case EventSaturated:
		return "saturation-detected"
	case EventSample, EventSampleDone:
		return "sampling"
	case EventShrink:
		return "shrink-step"
	case EventHold:
		return "steady"
	case EventPhaseChange:
		return "phase-reset"
	case EventReset:
		return "perf-reset"
	case EventRollback:
		return "rollback"
	case EventValidated:
		return "validated"
	}
	return string(k)
}

// Event records one controller decision; examples and tests subscribe via
// Trace to watch DICER think. Group is the CLOS group the decision
// concerns (always 0 for the single-HP controller New builds); HPWays and
// HPIPC carry that group's allocation and mean member IPC.
type Event struct {
	Period  int
	Group   int
	State   string
	Kind    EventKind
	Cause   string // provenance tag, Kind.Cause()
	HPWays  int
	HPIPC   float64
	TotalBW float64
}

// Controller is the DICER controller. It implements policy.Policy by
// running one groupState (group.go) per CLOS group of HP applications:
// group i is CLOS i, masks are stacked from the top of the LLC in group
// order, and the BE partition takes the low-order remainder. New builds
// the paper's single-HP controller — one group over [MinHPWays,
// NumWays-MinBEWays] with BE on CLOS 1, exactly the HP/BE split of
// policy.SplitWays. NewMulti (multi.go) builds the LFOC-style multi-HP
// controller, whose clustering plan maps HP apps to groups.
type Controller struct {
	cfg MultiConfig // cfg.Group holds the DICER tunables

	// Trace, when non-nil, receives one Event per decision.
	Trace func(Event)

	groups     []groupState
	totalWays  int
	beClos     int
	period     int
	masksDirty bool

	// sys is the system being actuated, valid for the duration of a
	// Setup/Observe call.
	sys resctrl.System

	// Planner state, set by NewMulti only: the caller-owned app view
	// (refreshed via UpdateSpecs), the enforced plan, the clustering
	// bounds and scratch for hint-free replanning.
	specs        []cluster.AppSpec
	plan         cluster.Plan
	ccfg         cluster.Config
	scratchSpecs []cluster.AppSpec
}

// New creates the single-HP DICER controller with the given
// configuration.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		cfg:    MultiConfig{Group: cfg},
		groups: make([]groupState, 1),
		beClos: policy.BEClos,
	}, nil
}

// MustNew is New with a panic on bad configuration, for tests/examples.
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements policy.Policy: "DICER", or "DICER-<grouping>" for a
// controller built by NewMulti.
func (c *Controller) Name() string {
	if c.Grouped() {
		return "DICER-" + c.cfg.Grouping
	}
	return "DICER"
}

// Config returns the DICER tunables every group runs with.
func (c *Controller) Config() Config { return c.cfg.Group }

// Grouped reports whether the controller was built by NewMulti: HP apps
// are planned into CLOS groups, and traces use the v2 schema.
func (c *Controller) Grouped() bool { return c.specs != nil }

// HPWays returns the way count currently enforced for group 0 — the HP
// partition of the single-HP controller.
func (c *Controller) HPWays() int { return c.groups[0].cur }

// Period returns the number of monitoring periods observed since Setup.
// It increments by exactly one per Observe call — the invariant checker
// (internal/invariant) relies on this to verify monotone bookkeeping.
func (c *Controller) Period() int { return c.period }

// CTFavoured reports whether group 0 still assumes the workload is
// CT-Favoured (no bandwidth saturation observed so far).
func (c *Controller) CTFavoured() bool { return c.groups[0].ctFavoured }

// State returns group 0's state name, for reporting.
func (c *Controller) State() string { return c.groups[0].st.String() }

// NumGroups returns the number of HP CLOS groups currently enforced.
func (c *Controller) NumGroups() int { return len(c.groups) }

// MaxGroups returns the most HP groups the controller can run: one less
// than the CLOS budget for a grouped controller, otherwise one.
func (c *Controller) MaxGroups() int {
	if c.Grouped() {
		return c.cfg.CLOSBudget - 1
	}
	return 1
}

// BEClos returns the CLOS id of the best-effort partition.
func (c *Controller) BEClos() int { return c.beClos }

// GroupWays returns group gi's currently enforced allocation.
func (c *Controller) GroupWays(gi int) int { return c.groups[gi].cur }

// GroupState returns group gi's state name, for reporting.
func (c *Controller) GroupState(gi int) string { return c.groups[gi].st.String() }

// Setup implements policy.Policy: DICER begins exactly like CT, assuming
// a CT-Favoured workload (Listing 1's initialisation) in every group.
func (c *Controller) Setup(sys resctrl.System) error {
	if c.Grouped() {
		return c.setupPlan(sys)
	}
	total := sys.NumWays()
	if total < c.cfg.Group.MinHPWays+c.cfg.Group.MinBEWays {
		return fmt.Errorf("dicer: %d ways cannot satisfy minimums %d+%d",
			total, c.cfg.Group.MinHPWays, c.cfg.Group.MinBEWays)
	}
	c.totalWays = total
	c.period = 0
	c.sys = sys
	c.groups[0].init(&c.cfg.Group, 0, c.cfg.Group.MinHPWays, total-c.cfg.Group.MinBEWays)
	return c.installMasks()
}

// Observe implements policy.Policy: one invocation per monitoring
// period, with the period's counter readings. Every group runs Listing
// 1's dicer_driver loop body against its CLOS's mean IPC and bandwidth;
// mask changes from all groups are installed in one stacked relayout;
// a grouped controller's re-cluster schedule then gets a chance to
// regroup (reactively, or ahead of hinted phase changes).
func (c *Controller) Observe(sys resctrl.System, p resctrl.Period) error {
	c.period++
	c.sys = sys
	saturated := p.TotalGbps > c.cfg.Group.BWThresholdGbps && !c.cfg.Group.DisableSaturationHandling

	c.masksDirty = false
	for gi := range c.groups {
		c.groups[gi].observe(c, p.ClosMeanIPC(gi), p.GroupBW(gi), p.TotalGbps, saturated)
	}
	if c.masksDirty {
		if err := c.installMasks(); err != nil {
			return err
		}
	}
	if c.cfg.ReclusterEvery > 0 && c.period%c.cfg.ReclusterEvery == 0 {
		return c.maybeRecluster(p)
	}
	return nil
}

// installMasks lays the groups' current allocations out from the top of
// the LLC and gives the BE partition the low-order remainder. Group
// windows end at most MinBEWays below the top, so BE keeps its floor.
func (c *Controller) installMasks() error {
	top := c.totalWays
	for gi := range c.groups {
		w := c.groups[gi].cur
		if err := c.sys.SetCBM(gi, cache.ContiguousMask(top-w, w)); err != nil {
			return err
		}
		top -= w
	}
	return c.sys.SetCBM(c.beClos, cache.ContiguousMask(0, top))
}

// emit publishes one group decision to the Trace subscriber.
func (c *Controller) emit(g *groupState, kind EventKind, ipc, totalBW float64) {
	if c.Trace == nil {
		return
	}
	c.Trace(Event{
		Period:  c.period,
		Group:   g.idx,
		State:   g.st.String(),
		Kind:    kind,
		Cause:   kind.Cause(),
		HPWays:  g.cur,
		HPIPC:   ipc,
		TotalBW: totalBW,
	})
}

// ChainTrace subscribes fn to the controller's decision stream without
// displacing an existing subscriber: both run, existing first. The
// observability recorder uses this so audit traces compose with the
// CLI's -trace printer and test hooks.
func (c *Controller) ChainTrace(fn func(Event)) {
	if fn == nil {
		return
	}
	if prev := c.Trace; prev != nil {
		c.Trace = func(e Event) {
			prev(e)
			fn(e)
		}
		return
	}
	c.Trace = fn
}

// ControllerOf extracts the DICER controller from a policy that is one or
// wraps one (the ext policies and the invariant guard expose
// Controller()). It returns nil for policies without a controller.
func ControllerOf(p policy.Policy) *Controller {
	switch v := p.(type) {
	case *Controller:
		return v
	case interface{ Controller() *Controller }:
		return v.Controller()
	}
	return nil
}

var _ policy.Policy = (*Controller)(nil)
