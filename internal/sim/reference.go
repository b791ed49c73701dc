package sim

import (
	"math/bits"

	"dicer/internal/membw"
)

// This file retains the pre-optimisation solver verbatim (modulo renames).
// It is the executable specification the cached, allocation-free hot path
// in sim.go is held to: solver-equivalence tests run every scenario through
// both and require identical decision trajectories and IPC. Keep the bodies
// in lockstep with the model — any intentional model change must land in
// both paths.

// referenceSolveShares computes the cache capacity available to each
// process given the current masks, via pressure-proportional division of
// way regions. Results land in r.shares (bytes per process, indexed like
// r.procs). This is the original per-step implementation: fresh maps and
// slices every call.
func (r *Runner) referenceSolveShares() {
	n := len(r.procs)
	if n == 0 {
		return
	}
	wayBytes := r.m.WayBytes()

	// Group ways into regions keyed by sharer signature. With <=64 procs a
	// bitmask over procs identifies a region.
	type region struct {
		sharers  uint64
		capacity float64
	}
	regions := make(map[uint64]*region, 4)
	for w := 0; w < r.m.LLCWays; w++ {
		var sig uint64
		for i, s := range r.procs {
			if !s.parked && r.masks[s.clos]&(1<<uint(w)) != 0 {
				sig |= 1 << uint(i)
			}
		}
		if sig == 0 {
			continue // way no process can fill: idle capacity
		}
		reg := regions[sig]
		if reg == nil {
			reg = &region{sharers: sig}
			regions[sig] = reg
		}
		reg.capacity += wayBytes
	}

	// Initial pressure: evaluate each process at an equal split of its
	// reachable capacity.
	reach := make([]float64, n)
	sharerCount := make(map[uint64]int, len(regions))
	for sig, reg := range regions {
		cnt := bits.OnesCount64(sig)
		sharerCount[sig] = cnt
		for i := 0; i < n; i++ {
			if sig&(1<<uint(i)) != 0 {
				reach[i] += reg.capacity / float64(cnt)
			}
		}
	}
	bf := r.coLocFactor()
	caps := make([]float64, n)
	for i, s := range r.procs {
		if s.parked {
			r.pressure[i] = 0
			continue
		}
		r.pressure[i] = touchPressure(&r.m, s.proc, reach[i], bf)
		// The most capacity a process can ever make use of: its resident
		// demand when offered everything it can reach. Streaming traffic
		// churns, so OccupancyDemand returns the full offer for apps with
		// a streaming fraction; bounded apps cap at their footprint.
		caps[i] = s.proc.Perf(r.m, float64(r.m.LLCBytes), 1, bf).OccupancyB
	}

	// Damped fixed point: water-fill each region by touch rate (hits keep
	// LRU lines fresh, so retention competition follows total access
	// intensity, not miss intensity), capped by footprint; re-evaluate
	// touch rates at the resulting shares.
	active := make([]int, 0, n)
	alloc := make([]float64, n)
	for iter := 0; iter < shareIters; iter++ {
		for i := range r.shares {
			r.shares[i] = 0
		}
		for sig, reg := range regions {
			if sharerCount[sig] == 1 {
				// Exclusive region: owner takes all. (Index of the single
				// set bit.)
				i := bits.TrailingZeros64(sig)
				r.shares[i] += reg.capacity
				continue
			}
			active = active[:0]
			for i := 0; i < n; i++ {
				if sig&(1<<uint(i)) != 0 {
					active = append(active, i)
					alloc[i] = 0
				}
			}
			referenceWaterfill(reg.capacity, r.pressure, caps, active, alloc)
			for _, i := range active {
				r.shares[i] += alloc[i]
			}
		}
		for i, s := range r.procs {
			if s.parked {
				continue
			}
			p := touchPressure(&r.m, s.proc, r.shares[i], bf)
			r.pressure[i] = 0.5*r.pressure[i] + 0.5*p
		}
	}
}

// referenceWaterfill is the original waterfill: clones the active list
// per call instead of reusing scratch.
func referenceWaterfill(capacity float64, weights, caps []float64, active []int, alloc []float64) {
	remaining := capacity
	live := append([]int(nil), active...)
	for len(live) > 0 && remaining > 1e-9 {
		var totW float64
		for _, i := range live {
			totW += weights[i]
		}
		// With no weight information left (all-zero weights), fall back to
		// an even split — still honouring caps via the same loop.
		w := func(i int) float64 {
			if totW <= 0 {
				return 1
			}
			return weights[i]
		}
		tw := totW
		if tw <= 0 {
			tw = float64(len(live))
		}
		capped := live[:0]
		progressed := false
		budget := remaining
		for _, i := range live {
			t := budget * w(i) / tw
			headroom := caps[i] - alloc[i]
			if headroom <= t {
				alloc[i] += headroom
				remaining -= headroom
				progressed = true
			} else {
				capped = append(capped, i)
			}
		}
		live = capped
		if !progressed {
			// Nobody hit a cap: distribute proportionally and finish.
			for _, i := range live {
				alloc[i] += remaining * w(i) / tw
			}
			return
		}
	}
}

// stepReference advances the simulation by dt seconds using the original
// solve-everything-every-step path: share solve, per-call closures for the
// MBA throttle and bandwidth demand, and full Perf re-evaluation at every
// bisection probe.
func (r *Runner) stepReference(dt float64) {
	if len(r.procs) == 0 {
		r.time += dt
		return
	}

	r.referenceSolveShares()
	bf := r.coLocFactor()

	// Per-CLOS MBA throttle factors (1 = no throttle). A cap behaves like
	// extra latency for that CLOS's processes only: throttle t such that
	// the CLOS demand at combined inflation f*t meets the cap.
	throttle := func(clos int, f float64) float64 {
		cap := r.caps[clos]
		if cap <= 0 {
			return 1
		}
		demand := func(t float64) float64 {
			var sum float64
			for i, s := range r.procs {
				if s.clos == clos && !s.parked {
					sum += membw.BytesToGbps(s.proc.Perf(r.m, r.shares[i], f*t, bf).BytesPerSec, 1)
				}
			}
			return sum
		}
		if demand(1) <= cap {
			return 1
		}
		lo, hi := 1.0, 64.0
		for i := 0; i < 40; i++ {
			mid := (lo + hi) / 2
			if demand(mid) > cap {
				lo = mid
			} else {
				hi = mid
			}
		}
		return (lo + hi) / 2
	}

	// Global bandwidth fixed point over the latency-inflation factor.
	demandAt := func(f float64) float64 {
		var total float64
		for i, s := range r.procs {
			if s.parked {
				continue
			}
			t := throttle(s.clos, f)
			total += membw.BytesToGbps(s.proc.Perf(r.m, r.shares[i], f*t, bf).BytesPerSec, 1)
		}
		return total
	}
	util, inflation := r.m.Link.Solve(demandAt)
	r.lastInflation = inflation
	r.lastUtil = util

	// Advance processes at the solved operating point.
	for i, s := range r.procs {
		if s.parked {
			// A parked core makes no progress but wall-clock time still
			// passes: charge empty cycles so cumulative IPC reflects the
			// lost throughput (this is what the EFU metric must see).
			s.proc.Cycles += dt * r.m.CyclesPerSecond()
			continue
		}
		t := throttle(s.clos, inflation)
		before := s.proc.MemBytes
		s.proc.Advance(r.m, r.shares[i], inflation*t, bf, dt)
		r.closBytes[s.clos] += s.proc.MemBytes - before
	}
	r.time += dt
}

// referenceOccupancy is Occupancy computed afresh: each unparked process's
// resident bytes at the reference solver's shares, summed in attach order.
func (r *Runner) referenceOccupancy(clos int) float64 {
	r.referenceSolveShares()
	var occ float64
	for i, s := range r.procs {
		if s.clos == clos && !s.parked {
			o := s.proc.Phase().Curve.OccupancyDemand(r.shares[i])
			if o > r.shares[i] {
				o = r.shares[i]
			}
			occ += o
		}
	}
	return occ
}
