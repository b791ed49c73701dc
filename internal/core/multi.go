package core

import (
	"fmt"

	"dicer/internal/cache"
	"dicer/internal/cluster"
	"dicer/internal/resctrl"
)

// Grouping selects how NewMulti's controller maps HP apps to CLOS groups.
const (
	GroupingClustered = "clustered"     // LFOC-style sensitivity clustering
	GroupingPerApp    = "per-app"       // one CLOS per HP app (naive baseline)
	GroupingSpill     = "per-app-spill" // per-app until the ids run out, overflow shares the last group
	GroupingSingle    = "single"        // all HP apps share one CLOS
)

// MultiConfig configures the multi-HP controller.
type MultiConfig struct {
	// Group carries the per-group DICER tunables (thresholds, stability
	// band, sample step). Its MinHPWays is every HP group's CAT floor and
	// its MinBEWays the ways reserved for BE.
	Group Config

	// WayBytes is the LLC capacity of one way, needed to evaluate miss
	// curves during clustering (resctrl.System exposes only way counts).
	WayBytes float64

	// CLOSBudget is the number of CLOS ids the hardware exposes; the
	// plan uses at most CLOSBudget-1 HP groups plus the BE group, which
	// is pinned to CLOS id CLOSBudget-1. Real CAT: ~16.
	CLOSBudget int

	// Grouping is one of GroupingClustered (default when empty),
	// GroupingPerApp, GroupingSpill, GroupingSingle.
	Grouping string

	KneeEps float64 // cluster demand-knee cutoff (0 = cluster default)

	// ReclusterEvery re-evaluates the grouping every N periods (0 =
	// grouping fixed at Setup). Re-clustering needs a resctrl.CoreMover
	// substrate; groups whose membership changes restart their state
	// machine from CT's starting point.
	ReclusterEvery int

	// UsePhaseHints honours AppSpec.Hint curves during re-clustering
	// (Com-CAS-style: regroup ahead of the phase change). When false,
	// hints are ignored and re-clustering is reactive only.
	UsePhaseHints bool
}

// Validate reports configuration errors.
func (c MultiConfig) Validate() error {
	if err := c.Group.Validate(); err != nil {
		return err
	}
	if c.WayBytes <= 0 {
		return fmt.Errorf("dicer: multi config needs positive WayBytes, got %g", c.WayBytes)
	}
	if c.CLOSBudget < 2 {
		return fmt.Errorf("dicer: CLOS budget %d < 2", c.CLOSBudget)
	}
	switch c.Grouping {
	case GroupingClustered, GroupingPerApp, GroupingSpill, GroupingSingle:
	default:
		return fmt.Errorf("dicer: unknown grouping %q", c.Grouping)
	}
	if c.ReclusterEvery < 0 {
		return fmt.Errorf("dicer: negative recluster interval %d", c.ReclusterEvery)
	}
	return nil
}

// EventRecluster is emitted once per group when a re-cluster installs a
// new grouping (the group's state machine restarts).
const EventRecluster EventKind = "recluster"

// NewMulti creates the multi-HP controller over the given app specs: one
// DICER state machine per CLOS group of an LFOC-style clustering plan,
// under a fixed CLOS budget. The BE partition is pinned to CLOS
// CLOSBudget-1. The spec slice is copied; refresh per-phase curves with
// UpdateSpecs.
func NewMulti(cfg MultiConfig, specs []cluster.AppSpec) (*Controller, error) {
	if cfg.Grouping == "" {
		cfg.Grouping = GroupingClustered
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("dicer: multi controller needs at least one HP app")
	}
	c := &Controller{cfg: cfg}
	c.specs = make([]cluster.AppSpec, len(specs))
	copy(c.specs, specs)
	c.scratchSpecs = make([]cluster.AppSpec, len(specs))
	return c, nil
}

// MustNewMulti is NewMulti with a panic on bad configuration.
func MustNewMulti(cfg MultiConfig, specs []cluster.AppSpec) *Controller {
	c, err := NewMulti(cfg, specs)
	if err != nil {
		panic(err)
	}
	return c
}

// Plan returns the grouping currently enforced.
func (c *Controller) Plan() cluster.Plan { return c.plan }

// GroupOf returns the CLOS group of HP app i under the current plan.
func (c *Controller) GroupOf(app int) int { return c.plan.GroupOf(app) }

// UpdateSpecs refreshes the per-app planning view (current-phase curves
// and optional upcoming-phase hints). Call it before Observe on periods
// where phases may have moved; it copies in place and does not replan —
// the re-cluster schedule decides when plans change. The slice length
// must match the construction-time app count.
func (c *Controller) UpdateSpecs(specs []cluster.AppSpec) error {
	if len(specs) != len(c.specs) {
		return fmt.Errorf("dicer: spec count changed %d -> %d", len(c.specs), len(specs))
	}
	copy(c.specs, specs)
	return nil
}

// setupPlan is Setup for a grouped controller: plan the grouping, move
// every HP core into its group's CLOS, and install the stacked masks
// with BE at its floor (CT's starting point in every group).
func (c *Controller) setupPlan(sys resctrl.System) error {
	total := sys.NumWays()
	if sys.NumClos() < c.cfg.CLOSBudget {
		return fmt.Errorf("dicer: system has %d CLOS, config budgets %d", sys.NumClos(), c.cfg.CLOSBudget)
	}
	c.ccfg = cluster.Config{
		TotalWays:    total,
		WayBytes:     c.cfg.WayBytes,
		CLOSBudget:   c.cfg.CLOSBudget,
		MinGroupWays: c.cfg.Group.MinHPWays,
		MinBEWays:    c.cfg.Group.MinBEWays,
		KneeEps:      c.cfg.KneeEps,
	}
	plan, err := c.planNow(false)
	if err != nil {
		return err
	}
	c.totalWays = total
	c.beClos = c.cfg.CLOSBudget - 1
	c.period = 0
	c.sys = sys
	return c.installPlan(plan)
}

// planNow computes the plan for the current specs. hints controls
// whether AppSpec.Hint curves participate (they never do when the
// config disables phase hints).
func (c *Controller) planNow(hints bool) (cluster.Plan, error) {
	specs := c.specs
	if !hints || !c.cfg.UsePhaseHints {
		specs = c.scratchSpecs
		copy(specs, c.specs)
		for i := range specs {
			specs[i].Hint = nil
		}
	}
	switch c.cfg.Grouping {
	case GroupingPerApp:
		return cluster.PerApp(c.ccfg, specs)
	case GroupingSpill:
		return cluster.PerAppSpill(c.ccfg, specs)
	case GroupingSingle:
		return cluster.Single(c.ccfg, specs)
	default:
		return cluster.Assign(c.ccfg, specs)
	}
}

// installPlan moves cores into their plan groups, restarts every group's
// state machine at its budget, and installs the stacked masks. Plans
// with more than the available HP CLOS ids are rejected by planning, so
// group i maps directly to CLOS i.
func (c *Controller) installPlan(plan cluster.Plan) error {
	k := len(plan.Groups)
	if k > c.beClos {
		return fmt.Errorf("dicer: plan has %d groups, budget allows %d", k, c.beClos)
	}
	if mover, ok := c.sys.(resctrl.CoreMover); ok {
		for gi, g := range plan.Groups {
			for _, appIdx := range g.Apps {
				if err := mover.MoveCore(c.specs[appIdx].Core, gi); err != nil {
					return err
				}
			}
		}
	} else if k != 1 {
		// Without a core mover the caller must have attached every HP
		// app to CLOS 0 already; only the degenerate one-group plan can
		// be honoured.
		return fmt.Errorf("dicer: system cannot move cores between CLOS groups")
	}
	c.plan = plan
	if cap(c.groups) < k {
		c.groups = make([]groupState, k)
	}
	c.groups = c.groups[:k]
	for gi := range c.groups {
		c.groups[gi].init(&c.cfg.Group, gi, c.cfg.Group.MinHPWays, plan.Groups[gi].Ways)
	}
	// Idle CLOS ids between the last group and the BE partition get a
	// harmless low-way mask (they hold no cores).
	for clos := k; clos < c.beClos; clos++ {
		if err := c.sys.SetCBM(clos, cache.ContiguousMask(0, 1)); err != nil {
			return err
		}
	}
	return c.installMasks()
}

// maybeRecluster replans against the freshest specs and installs the new
// grouping when membership changed. Group state restarts on change —
// the partition landscape under a new grouping invalidates old optima.
func (c *Controller) maybeRecluster(p resctrl.Period) error {
	changed, err := c.Replan()
	if err != nil || !changed || c.Trace == nil {
		return err
	}
	for gi := range c.groups {
		c.emit(&c.groups[gi], EventRecluster, p.ClosMeanIPC(gi), p.TotalGbps)
	}
	return nil
}

// Replan recomputes the clustering against the freshest specs and
// installs it when membership or budgets changed, reporting whether a
// new plan went in. This is the fleet autoscaler's repartition-first
// hook: unlike the periodic re-cluster schedule it runs on demand,
// outside Observe, so an external controller can force a repack of the
// node's cache groups before resorting to added capacity. Group state
// restarts on change, exactly as a scheduled re-cluster would. The
// single-HP controller has no plan and never changes.
func (c *Controller) Replan() (bool, error) {
	if !c.Grouped() {
		return false, nil
	}
	plan, err := c.planNow(true)
	if err != nil {
		return false, err
	}
	if samePlan(c.plan, plan) {
		return false, nil
	}
	if err := c.installPlan(plan); err != nil {
		return false, err
	}
	return true, nil
}

// samePlan reports whether two plans group the same apps together with
// the same budgets (group order is deterministic, so index-wise
// comparison suffices).
func samePlan(a, b cluster.Plan) bool {
	if len(a.Groups) != len(b.Groups) {
		return false
	}
	for gi := range a.Groups {
		if a.Groups[gi].Ways != b.Groups[gi].Ways || len(a.Groups[gi].Apps) != len(b.Groups[gi].Apps) {
			return false
		}
		for i, app := range a.Groups[gi].Apps {
			if b.Groups[gi].Apps[i] != app {
				return false
			}
		}
	}
	return true
}
