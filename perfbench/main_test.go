package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"

	"overshadow/internal/sim"
)

// tinyScale shrinks every episode for the tests.
const tinyScale = 8

// heldOutSeed is a seed no workload was tuned on.
const heldOutSeed = 20231

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyRun(t *testing.T, name string, seed uint64, traced, plant bool) *runReport {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return runWorkload(w, params{seed: seed, scale: tinyScale, plant: plant}, 0, traced)
}

// checkMetrics asserts that the report prints exactly the named metrics,
// each with the declared unit.
func checkMetrics(t *testing.T, r *runReport, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(r.metrics) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(r.metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s not in BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}
}

// Every named metric prints with its unit, on both the untraced and the
// traced run, and both seeds pass.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, seed := range []uint64{1, heldOutSeed} {
			r := tinyRun(t, w.name, seed, false, false)
			if res := r.result(); !res.Correct || res.Failed != 0 {
				t.Errorf("%s seed %d: correct=%v failed=%d problems=%v", w.name, seed, res.Correct, res.Failed, r.problems)
			}
			checkMetrics(t, r, spec.EndToEnd)
			for name, m := range r.metrics {
				if m.Value <= 0 {
					t.Errorf("%s seed %d: end-to-end metric %s = %v, want > 0", w.name, seed, name, m.Value)
				}
			}
		}
		r := tinyRun(t, w.name, 1, true, false)
		if !r.result().Correct {
			t.Errorf("%s traced: problems %v", w.name, r.problems)
		}
		checkMetrics(t, r, spec.PerLayer)
		if len(r.tr.spans) == 0 {
			t.Errorf("%s traced: no spans recorded", w.name)
		}
	}
}

// A planted wrong reference value must surface as a failed op.
func TestPlantedReferenceFails(t *testing.T) {
	for _, w := range workloads {
		r := tinyRun(t, w.name, 1, false, true)
		if r.failed == 0 || r.metrics["ok_frac"].Value >= 1 {
			t.Errorf("%s: planted wrong reference went unnoticed (failed=%d ok_frac=%v)",
				w.name, r.failed, r.metrics["ok_frac"].Value)
		}
	}
}

// Two runs at one seed simulate exactly the same cycles and counters.
func TestSameSeedRepeatsExactly(t *testing.T) {
	for _, w := range workloads {
		a := w.run(params{seed: 3, scale: tinyScale}, newHeapSampler())
		b := w.run(params{seed: 3, scale: tinyScale}, newHeapSampler())
		if err := compareEpisodes(a, b); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"overshadow/internal/sim.(*Clock).advance"}, "sim"},
		{[]string{"sync.(*Mutex).Lock", "overshadow/internal/sim.(*Stats).Inc", "main.main"}, "sim"},
		{[]string{"runtime.mapaccess2_fast64", "overshadow/internal/mmu.(*TLB).Lookup"}, "mmu"},
		{[]string{"crypto/aes.encryptBlock", "overshadow/internal/cloak.(*Engine).EncryptPage"}, "cloak"},
		{[]string{"runtime.mallocgc", "main.runCPUMix.func1"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 98}, {120, 90}, {40, 75}, {5, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// A repeat that differs in any counter of the snapshot fails, not only in
// the counters the benchmark reports.
func TestCompareEpisodesWholeSnapshot(t *testing.T) {
	ref := &episode{counters: map[sim.Counter]uint64{sim.CtrMemAccess: 9, sim.CtrCTCSave: 3}}
	for _, c := range []map[sim.Counter]uint64{
		{sim.CtrMemAccess: 9, sim.CtrCTCSave: 4},
		{sim.CtrMemAccess: 9},
		{sim.CtrMemAccess: 9, sim.CtrCTCSave: 3, sim.CtrMigration: 1},
	} {
		if err := compareEpisodes(ref, &episode{counters: c}); err == nil {
			t.Errorf("counters %v passed as a repeat of %v", c, ref.counters)
		}
	}
	if err := compareEpisodes(ref, &episode{counters: maps.Clone(ref.counters)}); err != nil {
		t.Errorf("identical counters: %v", err)
	}
}
