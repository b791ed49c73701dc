package fleet

import (
	"fmt"

	"dicer/internal/slo"
)

// MigrationConfig parameterises SLO-burn-driven BE migration. The node
// controller (CAT way partitioning) is the first line of defence for an
// HP's SLO; when it is not enough — the node's multi-window burn-rate
// alert fires — the fleet acts, evicting the node's heaviest BE jobs
// back into the admission queue for re-placement elsewhere through the
// normal bounded-retry path. Hysteresis is layered three deep so a node
// is never thrashed: the alerter's own clear-hold, a per-node eviction
// cooldown, and a placement quarantine that keeps evicted load from
// bouncing straight back.
type MigrationConfig struct {
	// Enabled turns the migration engine on. The zero value keeps the
	// fleet static and its traces byte-identical.
	Enabled bool `json:"enabled"`
	// Alert is the per-node burn-rate rule. Zero value means
	// slo.DefaultAlertConfig.
	Alert slo.AlertConfig `json:"alert"`
	// MaxEvict bounds evictions per node per migration decision.
	// Default 2.
	MaxEvict int `json:"max_evict"`
	// CooldownPeriods is the minimum spacing between two migration
	// decisions on the same node. Default 10.
	CooldownPeriods int `json:"cooldown_periods"`
	// QuarantinePeriods keeps a just-evicted node out of the placement
	// candidate set, so its own evictees (and new arrivals) cannot land
	// back on it while it recovers. Default 10.
	QuarantinePeriods int `json:"quarantine_periods"`
	// BackoffPeriods delays an evicted job's next placement attempt.
	// Default 1.
	BackoffPeriods int `json:"backoff_periods"`
}

// withDefaults fills unset fields in place (only when enabled, so a
// zero config stays zero and static headers stay byte-identical).
func (m *MigrationConfig) withDefaults() {
	if !m.Enabled {
		return
	}
	if m.Alert.Budget == 0 && len(m.Alert.Windows) == 0 {
		m.Alert = slo.DefaultAlertConfig()
	}
	if m.MaxEvict == 0 {
		m.MaxEvict = 2
	}
	if m.CooldownPeriods == 0 {
		m.CooldownPeriods = 10
	}
	if m.QuarantinePeriods == 0 {
		m.QuarantinePeriods = 10
	}
	if m.BackoffPeriods == 0 {
		m.BackoffPeriods = 1
	}
}

// validate reports configuration errors.
func (m MigrationConfig) validate() error {
	if !m.Enabled {
		return nil
	}
	if err := m.Alert.Validate(); err != nil {
		return err
	}
	if m.MaxEvict < 1 {
		return fmt.Errorf("fleet: migration max evict %d < 1", m.MaxEvict)
	}
	if m.CooldownPeriods < 1 {
		return fmt.Errorf("fleet: migration cooldown %d < 1", m.CooldownPeriods)
	}
	if m.QuarantinePeriods < 0 {
		return fmt.Errorf("fleet: negative migration quarantine %d", m.QuarantinePeriods)
	}
	if m.BackoffPeriods < 1 {
		return fmt.Errorf("fleet: migration backoff %d < 1", m.BackoffPeriods)
	}
	return nil
}

// migrateLocked is the per-period migration pass, run at the top of the
// step on the previous periods' alert state. For each node whose alert
// is firing and whose cooldown has expired, it evicts up to MaxEvict BE
// jobs — heaviest predicted bandwidth first, ties to the lower core —
// back into the queue with backoff, then quarantines the node against
// placements. Jobs at the placement-attempt bound are never evicted
// (migration must not be a path to dropping work), and eviction stops
// rather than overflow the admission queue.
func (c *Cluster) migrateLocked(p int, rec *ClusterRecord) {
	m := &c.cfg.Migration
	for i, n := range c.nodes {
		if n.lost || n.retired || n.Frozen(p) || n.beCount == 0 {
			continue
		}
		if !c.alerters[i].Firing() || p < c.migNext[i] {
			continue
		}
		var jobIDs []int
		for len(jobIDs) < m.MaxEvict && len(c.queue) < c.cfg.QueueCap {
			beWays := n.beWays()
			bestCore := -1
			bestScore := 0.0
			for core := n.hpCount; core < len(n.jobs); core++ {
				j := n.jobs[core]
				if j == nil || j.Attempts >= c.cfg.MaxPlaceAttempts {
					continue
				}
				s := j.demandOn(&c.cfg.Machine).predict(beWays, n.beCount)
				if bestCore < 0 || s > bestScore {
					bestCore, bestScore = core, s
				}
			}
			if bestCore < 0 {
				break
			}
			j := n.evict(bestCore)
			j.NotBefore = p + m.BackoffPeriods
			c.queue = append(c.queue, j)
			jobIDs = append(jobIDs, j.ID)
		}
		if len(jobIDs) == 0 {
			continue
		}
		c.quarUntil[i] = p + m.QuarantinePeriods
		c.migNext[i] = p + m.CooldownPeriods
		rec.Evicted += len(jobIDs)
		c.res.Evicted += len(jobIDs)
		c.res.Migrations++
		burns := c.alerters[i].Burns()
		rec.Events = append(rec.Events, FleetEvent{
			Cause:  CauseMigration,
			Node:   n.ID(),
			Jobs:   jobIDs,
			Detail: fmt.Sprintf("burn=%.2f/%.2f be=%d", burns[0], burns[len(burns)-1], n.beCount),
		})
	}
}
