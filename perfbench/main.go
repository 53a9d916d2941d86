// Command perfbench is the repository's end-to-end benchmark of the
// commfree compiler and its service. It runs one named workload in
// process, checks every output for correctness, and prints one JSON
// line with every metric by name and unit:
//
//	perfbench --workload compile_cold --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the same
// seeded inputs through each layer's public entry point and reports the
// per-layer metrics instead. BENCHMARK.json at the repository root
// records the workloads, metrics and bounds. Any incorrect output makes
// the command exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scratch  string
}

// outcome is what a workload run produces.
type outcome struct {
	tally   tally
	metrics metrics
	digest  string // fingerprint of the seeded inputs
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"compile_cold": runCompileCold,
	"execute_hot":  runExecuteHot,
	"fleet_churn":  runFleetChurn,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: compile_cold, execute_hot or fleet_churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 25, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced replay")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build/scratch", "directory for temporary plan stores")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", cfg.workload)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(2)

	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	correct := len(o.tally.breaches) == 0
	keys := make([]string, 0, len(o.tally.errors))
	for k := range o.tally.errors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "perfbench: %d × %s\n", o.tally.errors[k], k)
	}
	for _, b := range o.tally.breaches {
		fmt.Fprintf(os.Stderr, "perfbench: incorrect: %s\n", b)
	}
	fmt.Printf("input digest %s\n", o.digest)
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": o.tally.attempted,
		"failed":    o.tally.failed,
		"metrics":   o.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}
