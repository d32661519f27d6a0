// Command perfbench is the repository's host-time benchmark. It drives the
// simulator only through its public entry points (core.NewSystem, Register,
// Spawn, Run, the guest Env, migrate.Capture/Transfer/Restore and
// System.Stats) and reports, per workload, how fast the simulator runs
// (host time) next to what the modelled design costs (simulated cycles).
//
// Usage:
//
//	go run . --workload cpu-mix --seed 1 --seconds 10 --trace 0
//
// A run repeats one seeded episode (boot, input seeding, warm-up, measured
// phase, output checks) until --seconds of measured time have passed. Every
// episode of a run uses the same inputs, so its simulated cycles and counter
// deltas must repeat exactly; a mismatch fails the run. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 traced and untraced episodes alternate and the metrics are
// the per-layer ones (spans, counter deltas and a host CPU profile rolled
// up per internal package).
//
// Fault injection, the adversarial kernel and the sim-time observability
// layer (obs tracing/profiling) are off in every workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// workload is one named input set. run executes a single episode.
type workload struct {
	name string
	run  func(p params, heap *heapSampler) *episode
}

// minEpisodes is the fewest untraced episodes a run makes; the tail
// percentile is fixed from minEpisodes*opsPerEpisode so that every run of a
// workload reports the same percentile.
const minEpisodes = 3

// params are the inputs of one episode.
type params struct {
	seed uint64
	// scale divides the episode's work; 1 is the benchmark size, larger
	// values give the tiny episodes the tests use.
	scale int
	// plant corrupts one host-side reference value of a measured op, so a
	// correct program must be reported as failing (the benchmark's
	// self-test).
	plant bool
	tr    *tracer // nil for an untraced episode
}

var workloads = []workload{
	{name: "cpu-mix", run: runCPUMix},
	{name: "kv-swap", run: runKVSwap},
	{name: "migrate-churn", run: runMigrateChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// maxRun stops a run from starting new episodes, whatever --seconds asks
// for, and maxEpisode ends the guest wait loops of an episode that stopped
// making progress; together they keep a run under three minutes.
const (
	maxRun     = 90 * time.Second
	maxEpisode = 60 * time.Second
)

func main() {
	name := flag.String("workload", "cpu-mix", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured host seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for the span dump of a traced run")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)

	r := runWorkload(w, params{seed: *seed, scale: 1}, *seconds, *trace == 1)
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d episodes=%d ops=%d tail=p%g over %d samples\n",
		w.name, *seed, r.episodes, r.attempted, r.tailPct, r.tailSamples)
	fmt.Fprintf(os.Stderr, "perfbench: host nproc=%d GOMAXPROCS=%d %s; host times are comparable only on the same host\n",
		runtime.NumCPU(), procs, runtime.Version())
	fmt.Fprintln(os.Stderr, "perfbench: fault injection, adversary and obs tracing are off; simulated metrics are unvalidated against hardware")
	for _, msg := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	}
	if *trace == 1 {
		path, err := r.tr.dump(*outDir, w.name, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: span dump:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(r.tr.spans), path)
	}
	out, err := json.Marshal(r.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *runReport) result() result {
	return result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// problemf records a check that failed.
func problemf(list *[]string, format string, args ...any) {
	*list = append(*list, strings.TrimSpace(fmt.Sprintf(format, args...)))
}
