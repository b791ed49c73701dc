package fleet

import (
	"testing"
)

// BenchmarkFleetStep measures one cluster monitoring period end to end —
// admission, placement, concurrent node stepping, aggregation — on a
// loaded 4-node fleet. The cluster is rebuilt when the horizon runs out
// (setup cost excluded via timer pauses).
func BenchmarkFleetStep(b *testing.B) {
	const warm, horizon = 20, 256
	mk := func() *Cluster {
		c, err := New(Config{
			Nodes:          4,
			HorizonPeriods: horizon,
			Arrivals:       ArrivalConfig{Seed: 1, RatePerPeriod: 2, MeanDurationPeriods: 10},
		})
		if err != nil {
			b.Fatal(err)
		}
		// Warm the fleet to a steady-state population.
		for i := 0; i < warm; i++ {
			if err := c.Step(); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}
	c := mk()
	left := horizon - warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if left == 0 {
			b.StopTimer()
			c, left = mk(), horizon-warm
			b.StartTimer()
		}
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
		left--
	}
}

// BenchmarkFleetPlacement isolates the scheduler pass: headroom
// placement of one admitted job over every node's view, no node
// stepping. The job is admitted through the cluster, so its bandwidth
// and footprint come from the cluster's demand table.
func BenchmarkFleetPlacement(b *testing.B) {
	c, err := New(Config{
		Nodes:          8,
		HorizonPeriods: 4,
		Arrivals:       ArrivalConfig{Seed: 2, RatePerPeriod: 8, MeanDurationPeriods: 20},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Step(); err != nil {
		b.Fatal(err)
	}
	job, err := c.admit(Arrival{Job: -1, App: c.nodes[0].cfg.HPs[0].Name, DurationPeriods: 1})
	if err != nil {
		b.Fatal(err)
	}
	views := make([]NodeView, 0, len(c.nodes))
	for i, n := range c.nodes {
		views = append(views, n.view(c.lastGbps[i]))
	}
	sched := HeadroomScheduler{}
	sched.Pick(job, views) // fill the table cells these views read
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Pick(job, views)
	}
}
