// Command overbench runs the Overshadow reproduction experiments (E1–E10
// in DESIGN.md) and prints their tables.
//
// Experiments run on a bounded worker pool: every independent benchmark
// world is one job, and results are collected in declaration order, so all
// output — tables, traces, metrics — is byte-identical for any -shards
// value. Sharding changes host wall time only.
//
// Usage:
//
//	overbench                      # run every experiment at quick scale
//	overbench -full                # full-scale parameters (slower)
//	overbench -e E1,E8             # a subset by ID
//	overbench -seed 7              # change the simulation seed
//	overbench -vcpus 4             # run every machine with 4 virtual CPUs
//	overbench -shards 4            # bound worker-pool width (default GOMAXPROCS)
//	overbench -list                # list experiments
//	overbench -json                # emit tables as JSON
//	overbench -e E2 -trace t.json  # also write a Perfetto-loadable trace
//	overbench -metrics m.json      # also write attributed cycle metrics
//	overbench -profile p.json      # also write a sim-time profile (see overprof)
//	overbench -out bench.json      # write a bench record (cycles + wall time)
//	overbench -baseline bench.json # embed baseline wall time + speedup in -out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"overshadow/internal/harness"
	"overshadow/internal/obs"
)

func main() {
	full := flag.Bool("full", false, "run full-scale parameters (slower)")
	only := flag.String("e", "", "comma-separated experiment IDs (default: all)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	vcpus := flag.Int("vcpus", 1, "virtual CPUs per simulated machine (1 = the pre-SMP machine, byte-identical output)")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "worker-pool width (1 = serial; results are identical for any value)")
	list := flag.Bool("list", false, "list experiments and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of formatted tables")
	jsonOut := flag.Bool("json", false, "emit JSON instead of formatted tables")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON (load in Perfetto) to `file`")
	metricsOut := flag.String("metrics", "", "write attributed cycle metrics JSON to `file`")
	profileOut := flag.String("profile", "", "write a sim-time profile artifact (folded stacks + latency histograms) to `file`")
	benchOut := flag.String("out", "", "write a bench record (per-experiment sim cycles + host wall time) to `file`")
	baseline := flag.String("baseline", "", "bench record `file` to compare wall time against in -out")
	flag.Parse()

	if *list {
		for _, e := range harness.Registry() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	if *vcpus < 1 {
		fmt.Fprintf(os.Stderr, "overbench: -vcpus must be >= 1 (got %d)\n", *vcpus)
		os.Exit(2)
	}
	opts := harness.Options{Quick: !*full, Seed: *seed, VCPUs: *vcpus}
	if *traceOut != "" || *metricsOut != "" || *profileOut != "" {
		opts.Observe = &harness.Observer{}
		if *traceOut != "" {
			opts.Observe.TraceCap = 1 << 18
		}
		opts.Observe.Profile = *profileOut != ""
	}
	selected := harness.Registry()
	if *only != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*only, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "overbench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	wallStart := time.Now()
	results := harness.RunAll(opts, selected, *shards)
	wall := time.Since(wallStart)

	switch {
	case *csv:
		for _, r := range results {
			fmt.Printf("# %s — %s\n%s\n", r.Table.ID, r.Table.Title, r.Table.CSV())
		}
	case *jsonOut:
		out := make([]string, 0, len(results))
		for _, r := range results {
			out = append(out, r.Table.JSON())
		}
		fmt.Printf("[\n%s\n]\n", strings.Join(out, ",\n"))
	default:
		mode := "quick"
		if *full {
			mode = "full"
		}
		fmt.Printf("overshadow experiment suite (%s scale, seed %d, %d shards)\n\n", mode, *seed, *shards)
		for _, r := range results {
			fmt.Println(r.Table)
			fmt.Printf("  (host time %.1fs)\n\n", float64(r.HostNS)/1e9)
		}
	}

	if opts.Observe != nil {
		writeObservations(opts.Observe, *traceOut, *metricsOut, *profileOut)
	}
	if *benchOut != "" {
		writeBenchRecord(*benchOut, *baseline, results, selected, opts, *shards, wall)
	}
}

// benchExperiment is one experiment's entry in a bench record.
type benchExperiment struct {
	ID        string  `json:"id"`
	Title     string  `json:"title"`
	SimCycles uint64  `json:"sim_cycles"`
	HostMS    float64 `json:"host_ms"`
}

// benchRecord is the stable -out schema (documented in README.md). The
// sim_cycles fields are deterministic — identical for any shard count and
// host — while host_ms (summed job time) and wall_ms measure this machine.
type benchRecord struct {
	Schema         string            `json:"schema"` // "overshadow-bench/v1"
	Mode           string            `json:"mode"`   // "quick" | "full"
	Seed           uint64            `json:"seed"`
	VCPUs          int               `json:"vcpus"`
	Shards         int               `json:"shards"`
	GOMAXPROCS     int               `json:"gomaxprocs"`
	Experiments    []benchExperiment `json:"experiments"`
	TotalSimCycles uint64            `json:"total_sim_cycles"`
	WallMS         float64           `json:"wall_ms"`
	BaselineWallMS float64           `json:"baseline_wall_ms,omitempty"`
	Speedup        float64           `json:"speedup,omitempty"`
	// BaselineSimCycles/SimCycleRatio compare the deterministic dimension
	// against -baseline — meaningful when the two records differ in the
	// simulated machine (e.g. -vcpus), not just in host parallelism.
	BaselineSimCycles uint64  `json:"baseline_total_sim_cycles,omitempty"`
	SimCycleRatio     float64 `json:"sim_cycle_ratio,omitempty"`
}

// writeBenchRecord emits the bench record, optionally embedding the wall
// time of a prior record (-baseline) and the resulting speedup.
func writeBenchRecord(path, baselinePath string, results []harness.Result,
	exps []harness.Experiment, opts harness.Options, shards int, wall time.Duration) {
	rec := benchRecord{
		Schema:     "overshadow-bench/v1",
		Mode:       "quick",
		Seed:       opts.Seed,
		VCPUs:      opts.VCPUs,
		Shards:     shards,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		WallMS:     float64(wall.Nanoseconds()) / 1e6,
	}
	if !opts.Quick {
		rec.Mode = "full"
	}
	for i, r := range results {
		rec.Experiments = append(rec.Experiments, benchExperiment{
			ID:        exps[i].ID,
			Title:     exps[i].Title,
			SimCycles: r.SimCycles,
			HostMS:    float64(r.HostNS) / 1e6,
		})
		rec.TotalSimCycles += r.SimCycles
	}
	if baselinePath != "" {
		data, err := os.ReadFile(baselinePath)
		if err != nil {
			fatal(err)
		}
		var base benchRecord
		if err := json.Unmarshal(data, &base); err != nil {
			fatal(fmt.Errorf("parse baseline %s: %w", baselinePath, err))
		}
		rec.BaselineWallMS = base.WallMS
		if rec.WallMS > 0 {
			rec.Speedup = base.WallMS / rec.WallMS
		}
		rec.BaselineSimCycles = base.TotalSimCycles
		if base.TotalSimCycles > 0 {
			rec.SimCycleRatio = float64(rec.TotalSimCycles) / float64(base.TotalSimCycles)
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "overbench: wrote bench record to %s (wall %.0f ms, %d shards)\n",
		path, rec.WallMS, shards)
}

// writeObservations exports the collected spans, metrics, and profile to
// the requested files.
func writeObservations(ob *harness.Observer, tracePath, metricsPath, profilePath string) {
	if tracePath != "" {
		spans, ring := ob.Trace()
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeTrace(f, spans, ring); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "overbench: wrote %d spans to %s (%d emitted, %d dropped)\n",
			len(spans), tracePath, ring.Total, ring.Dropped)
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteMetricsJSON(f, ob.MergedMetrics()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "overbench: wrote attributed metrics to %s\n", metricsPath)
	}
	if profilePath != "" {
		doc := obs.BuildProfileJSON(ob.MergedProfile())
		f, err := os.Create(profilePath)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteProfileJSON(f, doc); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "overbench: wrote profile (%d stacks, %d histograms) to %s\n",
			len(doc.Folded), len(doc.Histograms), profilePath)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "overbench: %v\n", err)
	os.Exit(1)
}
