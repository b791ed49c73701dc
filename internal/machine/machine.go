// Package machine describes the hardware platform being simulated: core
// count and frequency, LLC geometry, memory latency, and the shared memory
// link. The default matches Table 1 of the DICER paper (Intel Xeon E5-2630
// v4, Broadwell).
package machine

import (
	"fmt"

	"dicer/internal/membw"
)

// Machine is a server description. All simulator components take their
// geometry from here so an experiment can be re-run on a hypothetical
// machine (more ways, weaker link, more cores) by changing one value.
type Machine struct {
	Cores   int     // physical cores (SMT disabled, as in the paper)
	FreqGHz float64 // core clock

	LLCBytes     int     // total LLC capacity
	LLCWays      int     // associativity == number of allocatable ways
	LineBytes    int     // cache-line size
	MemLatCycles float64 // unloaded LLC-miss penalty in core cycles

	// CoLocCPIPenalty models the partition-independent interference of a
	// fully loaded socket (ring/mesh traffic, prefetcher pollution, shared
	// L2 TLB walkers): the base CPI of every process is inflated by up to
	// this fraction as the other cores fill up. Cache partitioning cannot
	// remove it — which is why even CT never keeps an HP fully unaffected
	// on real hardware (paper Fig. 1).
	CoLocCPIPenalty float64

	Link membw.Link
}

// Default returns the paper's platform: 10 cores at 2.2 GHz, 25 MB 20-way
// LLC, 64 B lines, 68.3 Gbps memory link. The 180-cycle unloaded miss
// penalty is a typical Broadwell LLC-miss-to-DRAM latency (~82 ns).
func Default() Machine {
	return Machine{
		Cores:           10,
		FreqGHz:         2.2,
		LLCBytes:        25 << 20,
		LLCWays:         20,
		LineBytes:       64,
		MemLatCycles:    180,
		CoLocCPIPenalty: 0.05,
		Link:            membw.DefaultLink(),
	}
}

// Validate reports configuration errors.
func (m Machine) Validate() error {
	if m.Cores <= 0 {
		return fmt.Errorf("machine: non-positive core count %d", m.Cores)
	}
	if m.FreqGHz <= 0 {
		return fmt.Errorf("machine: non-positive frequency %g", m.FreqGHz)
	}
	if m.LLCBytes <= 0 {
		return fmt.Errorf("machine: non-positive LLC size %d", m.LLCBytes)
	}
	if m.LLCWays <= 0 || m.LLCWays > 64 {
		return fmt.Errorf("machine: LLC ways %d outside [1,64]", m.LLCWays)
	}
	if m.LineBytes <= 0 || m.LineBytes&(m.LineBytes-1) != 0 {
		return fmt.Errorf("machine: line size %d not a positive power of two", m.LineBytes)
	}
	if m.MemLatCycles <= 0 {
		return fmt.Errorf("machine: non-positive memory latency %g", m.MemLatCycles)
	}
	if m.CoLocCPIPenalty < 0 || m.CoLocCPIPenalty > 1 {
		return fmt.Errorf("machine: co-location CPI penalty %g outside [0,1]", m.CoLocCPIPenalty)
	}
	return m.Link.Validate()
}

// WayBytes returns the capacity of one LLC way. WayBytes, WaysBytes and
// CoLocFactor take pointer receivers for the same reason CyclesPerSecond
// does: the simulator's share solve and the fleet's placement pass call
// them per process and per candidate node.
func (m *Machine) WayBytes() float64 {
	return float64(m.LLCBytes) / float64(m.LLCWays)
}

// WaysBytes returns the capacity of n LLC ways.
func (m *Machine) WaysBytes(n int) float64 {
	return float64(n) * m.WayBytes()
}

// CoLocFactor returns the base-CPI multiplier applied when otherActive
// other cores are running work (linear in socket occupancy, maxing out at
// CoLocCPIPenalty on a full socket).
func (m *Machine) CoLocFactor(otherActive int) float64 {
	if m.Cores <= 1 || otherActive <= 0 {
		return 1
	}
	return 1 + m.CoLocCPIPenalty*float64(otherActive)/float64(m.Cores-1)
}

// CyclesPerSecond returns core cycles per second. Pointer receiver: the
// per-step hot loops call it through *Machine, and a value receiver would
// copy the whole struct on every call.
func (m *Machine) CyclesPerSecond() float64 { return m.FreqGHz * 1e9 }

// FullMask returns the CBM selecting every LLC way.
func (m Machine) FullMask() uint64 {
	if m.LLCWays >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(m.LLCWays)) - 1
}
