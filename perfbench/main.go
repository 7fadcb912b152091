// Command perfbench is datavirt's repeatable benchmark: it drives one
// workload through the engine's public APIs as a closed loop of seeded
// queries, checks every distinct query against a brute-force oracle
// built from the generator's value functions, and prints its metrics
// as one JSON object on the last line of standard output.
//
// Run it from the repository root through the launcher, which builds
// the binary first:
//
//	bash perfbench/run.sh --workload local-scan --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics (tracing off);
// with --trace 1 it holds the per-layer metrics, measured from spans
// the benchmark records around each public call and from an obs.Tracer
// attached to the engine. BENCHMARK.json at the repository root lists
// every workload and metric and why each was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one named measurement of a result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // self-test scale (tests only): small datasets and pools
	workdir  string // scratch space for datasets, inside the checkout
	// corrupt flips one oracle digest, so a self-test can prove the
	// check catches a wrong result.
	corrupt bool
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the query stream")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "perfbench-data"), "directory for generated datasets")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad flags: want --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// environment describes the machine, build and inputs of one run.
func environment(cfg config, w *workload, ds datasetInfo) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"go_version":        runtime.Version(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"num_cpu":           runtime.NumCPU(),
		"vcs_revision":      rev,
		"workload":          w.name,
		"seed":              cfg.seed,
		"clients":           w.clients,
		"dataset_rows":      ds.rows,
		"dataset_bytes":     ds.bytes,
		"cache_budget_b":    ds.cacheBudget,
		"distinct_queries":  w.poolSize(cfg.tiny),
		"timed_seconds":     cfg.seconds,
		"trace":             cfg.trace,
		"started_unix_nano": time.Now().UnixNano(),
	}
}

// printLine writes one JSON object on its own line.
func printLine(out io.Writer, key string, v any) {
	b, err := json.Marshal(map[string]any{key: v})
	if err == nil {
		fmt.Fprintln(out, string(b))
	}
}
