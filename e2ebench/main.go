// Command e2ebench is the repository's end-to-end benchmark. It regenerates
// the paper's tables the three ways a user waits for them, through the
// entry points users call (experiments.Run, resultstore.Open +
// core.SetStore, and the daemon's HTTP handler on a loopback listener):
//
//	cold-quick   one pass of every experiment through an empty store
//	warm-quick   passes served from a populated store by a fresh handle
//	daemon-warm  closed-loop POST /jobs → progress EOF → GET /jobs/{id}
//
// Every table it gets back is checked: at the golden seed against the
// committed goldens, at any seed against the same run's cold tables or the
// in-process tables for the same (experiment, seed). The last line of
// standard output is one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics of a separate traced phase
// (--trace 1). Run it from the repository root through run.sh:
//
//	bash e2ebench/run.sh --workload warm-quick --seed 42 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"streamline/internal/experiments"
)

// workers is the runner pool size every workload uses (experiments.Opts
// Workers and the daemon jobs' workers field): one process's load on the
// two-core box the baseline was measured on.
const workers = 2

// minSamples is how many latencies a time-bounded phase collects before it
// may end: enough for ten samples beyond the p99.
const minSamples = 1000

// config is one run's settings. Only workload, seed, seconds, trace and
// workDir come from flags; the tests shrink the rest.
type config struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      bool
	ids        []string // experiments in a pass
	minSamples int
	clients    int // daemon-warm closed-loop clients, one connection each
	goldenDir  string
	workDir    string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	res, err := runBench(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 42, "workload seed (42 is the golden seed)")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds (cold-quick always times exactly one pass)")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a separate traced phase")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build/e2ebench", "scratch directory for result stores")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if !known(cfg.workload) {
		return cfg, fmt.Errorf("unknown -workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if *trace != 0 && *trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	cfg.trace = *trace == 1
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("-seconds must be positive, got %v", cfg.seconds)
	}
	cfg.ids = experiments.IDs()
	cfg.minSamples = minSamples
	cfg.clients = 2
	cfg.goldenDir = "internal/experiments/testdata"
	return cfg, nil
}

func known(w string) bool {
	for _, n := range workloadNames {
		if n == w {
			return true
		}
	}
	return false
}
