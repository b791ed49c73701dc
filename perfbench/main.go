// Command perfbench is the repository's benchmark. It runs one of three
// named workloads of the simulator for a fixed number of host seconds,
// checks every simulated output it produces, and prints the workload's
// end-to-end metrics (--trace 0) or the per-layer split of a traced run
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from the checkout first:
//
//	bash perfbench/run.sh --workload sweep --seed 42 --seconds 20 --trace 0
//
// README.md in this directory describes the workloads, the metrics and
// the layer each per-layer metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the arrival seed of the recorded fleet runs
// (BENCH_fleet.json); outputs at this seed are checked against pinned
// digests. heldOutSeed is kept out of tuning: a later change confirms a
// claimed gain on it.
const (
	defaultSeed = 42
	heldOutSeed = 7919
)

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	workers int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", defaultSeed, "arrival seed of the fleet workloads (the sweep has no random input)")
	seconds := fs.Int("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer split from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, workloadNames())
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d < 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d is neither 0 nor 1", *trace)
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workers: procs}

	out, err := measure(mk(), o)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "workload %s, seed %d, %d workers, %d operations, %d failed\n",
		*name, o.seed, o.workers, out.Attempted, out.Failed)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-30s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	body, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", body)
	return err
}

// workloads builds each named workload afresh: a workload keeps the
// reference outputs of the run that measures it.
var workloads = map[string]func() workload{
	"sweep":    func() workload { return newSweep() },
	"fleet-1k": func() workload { return fleet1k() },
	"fleet-64": func() workload { return fleet64() },
}

func workloadNames() string {
	return "sweep, fleet-1k, fleet-64"
}
