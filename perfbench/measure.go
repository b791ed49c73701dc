package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// A workload is one set of inputs the benchmark runs. Each measurement
// runs it in passes: one pass is the whole workload (the full sweep, or
// one fleet from its first period to its horizon) on a freshly built
// instance, so every pass does identical work.
type workload interface {
	// newPass builds a fresh instance: the timed set-up.
	newPass(o options, kind passKind) (pass, setupTimes, error)
	// entryFuncs are the layer entry functions a traced pass of this
	// workload must find in its CPU profile.
	entryFuncs() []string
}

type pass interface {
	run() (passOut, error)
}

type passKind int

const (
	// passReference is the first, untimed pass. Its outputs are checked
	// against the pinned digests and become the reference every later
	// pass is compared with. It also takes the first-pass costs of the
	// process out of the measurement.
	passReference passKind = iota
	passTimed
	passTraced
)

type setupTimes struct {
	alone, build time.Duration
}

// quality is the simulated outcome of a pass. It is deterministic, so
// it is checked, not timed.
type quality struct {
	efu, sloRate, admitRate float64
}

type passOut struct {
	wall        time.Duration // host time of the measured part
	nodePeriods int64         // simulated server-periods done
	ops, failed int           // checked operations and how many failed
	p50, p90    float64       // step latency quantiles of the pass, ms
	peakHeap    uint64
	quality     quality
	layers      *layerSplit // traced passes only
	rt          rtDelta
}

// setupRepeats is how many times each pass sets up, keeping the last
// instance: set-up is short, so it is sampled more often than the pass.
const setupRepeats = 3

// measure runs the reference pass, then passes until o.seconds have
// passed: at least one, or two when tracing, where untraced and traced
// passes alternate so the tracing overhead is measured in one process.
// Each timing is taken per pass and reported as the median over passes.
// A pass keeps no samples once it ends, so the heap a late pass sees
// does not grow with the passes before it.
func measure(w workload, o options) (output, error) {
	var (
		setups, alones, builds []float64
		ops, failed            int
		plain, traced          []passOut
	)
	runPass := func(kind passKind) (passOut, error) {
		var p pass
		for i := 0; i < setupRepeats; i++ {
			runtime.GC()
			var st setupTimes
			var err error
			if p, st, err = w.newPass(o, kind); err != nil {
				return passOut{}, err
			}
			alones = append(alones, st.alone.Seconds())
			builds = append(builds, st.build.Seconds())
			setups = append(setups, (st.alone + st.build).Seconds())
		}
		runtime.GC()
		before := readRuntime()
		out, err := p.run()
		if err != nil {
			return passOut{}, err
		}
		runtime.GC() // the runtime's CPU-class figures advance at GC
		out.rt = readRuntime().sub(before)
		ops += out.ops
		failed += out.failed
		return out, nil
	}

	ref, err := runPass(passReference)
	if err != nil {
		return output{}, err
	}
	minPasses := 1
	if o.trace {
		minPasses = 2
	}
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < o.seconds; i++ {
		kind := passTimed
		if o.trace && i%2 == 1 {
			kind = passTraced
		}
		out, err := runPass(kind)
		if err != nil {
			return output{}, err
		}
		if kind == passTraced {
			traced = append(traced, out)
		} else {
			plain = append(plain, out)
		}
	}

	res := output{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: map[string]metric{}}
	if o.trace {
		if err := tracedMetrics(res.Metrics, w, plain, traced); err != nil {
			return output{}, err
		}
		res.Metrics["setup.alone_s"] = metric{median(alones), "s"}
		res.Metrics["setup.build_s"] = metric{median(builds), "s"}
		return res, nil
	}

	var rates, p50s, p90s, peaks []float64
	var allocs, nodePeriods float64
	for _, p := range plain {
		rates = append(rates, float64(p.nodePeriods)/p.wall.Seconds())
		p50s = append(p50s, p.p50)
		p90s = append(p90s, p.p90)
		peaks = append(peaks, float64(p.peakHeap)/(1<<20))
		allocs += float64(p.rt.allocs)
		nodePeriods += float64(p.nodePeriods)
	}
	m := res.Metrics
	m["node_periods_per_s"] = metric{median(rates), "1/s"}
	m["step_p50_ms"] = metric{median(p50s), "ms"}
	m["step_p90_ms"] = metric{median(p90s), "ms"}
	m["setup_s"] = metric{median(setups), "s"}
	m["peak_heap_mb"] = metric{median(peaks), "MB"}
	m["allocs_per_node_period"] = metric{allocs / nodePeriods, "count"}
	m["fleet_efu"] = metric{ref.quality.efu, "ratio"}
	m["slo_violation_rate"] = metric{ref.quality.sloRate, "ratio"}
	m["admit_rate"] = metric{ref.quality.admitRate, "ratio"}
	return res, nil
}

// tracedMetrics fills the per-layer split: layer shares and call costs
// from the traced passes, runtime and executor figures from the
// untraced passes in between, and the tracing overhead from comparing
// the two.
func tracedMetrics(m map[string]metric, w workload, plain, traced []passOut) error {
	split := newLayerSplit()
	for _, p := range traced {
		split.add(p.layers)
	}
	if err := selfCheck(split, w.entryFuncs(), minCheckedCPU); err != nil {
		return err
	}
	for name, v := range split.metrics() {
		m[name] = v
	}

	var busy, total, gc, allocBytes, nodePeriods float64
	var plainWall, tracedWall []float64
	for _, p := range plain {
		busy += p.rt.cpuTotal - p.rt.cpuIdle
		total += p.rt.cpuTotal
		gc += p.rt.cpuGC
		allocBytes += float64(p.rt.allocBytes)
		nodePeriods += float64(p.nodePeriods)
		plainWall = append(plainWall, p.wall.Seconds())
	}
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall.Seconds())
	}
	m["par.cpu_utilisation"] = metric{ratio(busy, total), "ratio"}
	m["runtime.gc.cpu_share"] = metric{ratio(gc, busy), "ratio"}
	m["alloc_bytes_per_node_period"] = metric{ratio(allocBytes, nodePeriods), "B"}
	m["trace.overhead"] = metric{median(tracedWall)/median(plainWall) - 1, "ratio"}
	return nil
}

// minCheckedCPU is the sampled CPU time below which the attribution
// self-check cannot tell a missing layer from a small one.
const minCheckedCPU = 5 * time.Second

// selfCheck fails when a layer entry function the workload exercises got
// no CPU samples: after a rename or an inlining change the attribution
// would silently move that layer's time elsewhere.
func selfCheck(split *layerSplit, entries []string, minCPU time.Duration) error {
	if split.sampledNS < float64(minCPU) {
		fmt.Fprintf(os.Stderr, "perfbench: attribution self-check skipped: %.1f s of CPU samples, need %v\n",
			split.sampledNS/1e9, minCPU)
		return nil
	}
	var missing []string
	for _, fn := range entries {
		if split.hits[fn] == 0 {
			missing = append(missing, fn)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("attribution self-check: layer entry functions %s got no CPU samples in %.1f s sampled; renamed or inlined?",
			strings.Join(missing, ", "), split.sampledNS/1e9)
	}
	return nil
}

// rtDelta is the change of the Go runtime's own accounting over a pass.
type rtDelta struct {
	cpuTotal, cpuIdle, cpuGC float64 // CPU seconds, summed over GOMAXPROCS
	allocs, allocBytes       uint64
}

var rtNames = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtDelta {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtDelta{
		cpuTotal:   s[0].Value.Float64(),
		cpuIdle:    s[1].Value.Float64(),
		cpuGC:      s[2].Value.Float64(),
		allocs:     s[3].Value.Uint64(),
		allocBytes: s[4].Value.Uint64(),
	}
}

func (a rtDelta) sub(b rtDelta) rtDelta {
	return rtDelta{
		cpuTotal:   a.cpuTotal - b.cpuTotal,
		cpuIdle:    a.cpuIdle - b.cpuIdle,
		cpuGC:      a.cpuGC - b.cpuGC,
		allocs:     a.allocs - b.allocs,
		allocBytes: a.allocBytes - b.allocBytes,
	}
}

// heapGauge tracks the peak of the live heap, as marked by the latest
// collection: the memory the workload holds, free of the garbage whose
// amount depends on when collections happen to run. Each goroutine
// needs its own gauge.
type heapGauge struct {
	s    [1]metrics.Sample
	peak uint64
}

func newHeapGauge() *heapGauge {
	g := &heapGauge{}
	g.s[0].Name = "/gc/heap/live:bytes"
	return g
}

func (g *heapGauge) sample() {
	metrics.Read(g.s[:])
	if v := g.s[0].Value.Uint64(); v > g.peak {
		g.peak = v
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durQuantile returns the q-quantile of ds in milliseconds, by linear
// interpolation between closest ranks.
func durQuantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
	return v / 1e6
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
