package fleet

import (
	"math"
	"testing"

	"dicer/internal/app"
	"dicer/internal/machine"
)

// TestDemandTableMatchesPrediction holds the demand table to its
// definition: for every catalog application, every BE partition width
// and every resident BE count, the table returns exactly (==, and
// bit for bit) what PredictJobGbps computes — on the filling read and
// on the cached one — and its footprint is exactly MaxFootprint.
func TestDemandTableMatchesPrediction(t *testing.T) {
	m := machine.Default()
	for _, p := range app.Catalog() {
		d := newJobDemand(m, p)
		if fp := p.MaxFootprint(); d.footprint != fp {
			t.Fatalf("%s: table footprint %v, MaxFootprint %v", p.Name, d.footprint, fp)
		}
		for pass := 0; pass < 2; pass++ {
			for ways := 0; ways <= m.LLCWays; ways++ {
				for count := 0; count <= m.Cores-1; count++ {
					got, want := d.predict(ways, count), PredictJobGbps(m, p, ways, count)
					if got != want || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s ways=%d count=%d pass %d: table %v, PredictJobGbps %v",
							p.Name, ways, count, pass, got, want)
					}
				}
			}
		}
	}
}

// TestDemandTableOutsideDomain checks that arguments beyond the
// tabulated range fall through to PredictJobGbps instead of indexing
// past the table.
func TestDemandTableOutsideDomain(t *testing.T) {
	m := machine.Default()
	p := app.MustByName("lbm1")
	d := newJobDemand(m, p)
	for _, c := range [][2]int{{-1, 0}, {m.LLCWays + 1, 0}, {4, -1}, {4, m.Cores}} {
		if got, want := d.predict(c[0], c[1]), PredictJobGbps(m, p, c[0], c[1]); got != want {
			t.Fatalf("predict(%d, %d) = %v, PredictJobGbps %v", c[0], c[1], got, want)
		}
	}
}

// TestJobDemandBinding checks how a job finds its table: a job admitted
// by a cluster shares the cluster's table for its application, a Job
// built by hand gets its own on first use, and a read against another
// machine re-tabulates for that machine.
func TestJobDemandBinding(t *testing.T) {
	c, err := New(Config{Nodes: 1, HorizonPeriods: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := Arrival{App: "milc1", DurationPeriods: 1}
	j1, err := c.admit(a)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.admit(a)
	if err != nil {
		t.Fatal(err)
	}
	if j1.demand == nil || j1.demand != j2.demand || j1.demandOn(&c.cfg.Machine) != j1.demand {
		t.Fatal("jobs of one application admitted by a cluster do not share its demand table")
	}

	m := machine.Default()
	own := &Job{Profile: app.MustByName("milc1")}
	d := own.demandOn(&m)
	if d == nil || d == j1.demand || own.demandOn(&m) != d {
		t.Fatal("a hand-built job does not keep a table of its own")
	}
	small := m
	small.LLCWays = 10
	if ds := own.demandOn(&small); ds == d || ds.m != small {
		t.Fatal("a read against another machine reused the old machine's table")
	}
	if got, want := own.demandOn(&small).predict(10, 2), PredictJobGbps(small, own.Profile, 10, 2); got != want {
		t.Fatalf("re-tabulated prediction %v, want %v", got, want)
	}
}
