package harness

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"overshadow/internal/obs"
)

// renderAll runs the full registry under RunAll and renders every export
// surface: table JSON, merged metrics JSON, the concatenated Chrome trace,
// and the per-experiment simulated-cycle totals.
func renderAll(t *testing.T, seed uint64, shards int) (tables, metrics, trace string, cycles []uint64) {
	t.Helper()
	ob := &Observer{TraceCap: 1 << 14}
	opts := Options{Quick: true, Seed: seed, Observe: ob}
	results := RunAll(opts, Registry(), shards)

	var tabs strings.Builder
	for _, r := range results {
		tabs.WriteString(r.Table.JSON())
		tabs.WriteByte('\n')
		cycles = append(cycles, r.SimCycles)
	}
	var met bytes.Buffer
	if err := obs.WriteMetricsJSON(&met, ob.MergedMetrics()); err != nil {
		t.Fatal(err)
	}
	var tr bytes.Buffer
	spans, ring := ob.Trace()
	if err := obs.WriteChromeTrace(&tr, spans, ring); err != nil {
		t.Fatal(err)
	}
	return tabs.String(), met.String(), tr.String(), cycles
}

// TestShardDeterminism is the harness's core guarantee: for any shard count,
// every export is byte-identical — sharding may only change host wall time.
// Two seeds guard against a coincidental ordering collision.
func TestShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry determinism sweep is slow")
	}
	for _, seed := range []uint64{1, 42} {
		tab1, met1, tr1, cyc1 := renderAll(t, seed, 1)
		tab8, met8, tr8, cyc8 := renderAll(t, seed, 8)
		if tab1 != tab8 {
			t.Errorf("seed %d: table JSON differs between -shards 1 and -shards 8", seed)
		}
		if met1 != met8 {
			t.Errorf("seed %d: metrics JSON differs between -shards 1 and -shards 8", seed)
		}
		if tr1 != tr8 {
			t.Errorf("seed %d: trace export differs between -shards 1 and -shards 8", seed)
		}
		for i := range cyc1 {
			if cyc1[i] != cyc8[i] {
				t.Errorf("seed %d: experiment %d SimCycles %d (serial) != %d (sharded)",
					seed, i, cyc1[i], cyc8[i])
			}
		}
		if len(tr1) == 0 || !strings.Contains(tr1, "traceEvents") {
			t.Fatalf("seed %d: trace export empty or malformed", seed)
		}
	}
}

// TestRunAllSerialMatchesDirect pins the back-compat contract: RunAll with
// one shard produces the same tables as calling each experiment directly
// (the path the per-experiment shape tests use).
func TestRunAllSerialMatchesDirect(t *testing.T) {
	exps := []Experiment{Registry()[1], Registry()[7]} // E2, E8: cheap + span-rich
	opts := Options{Quick: true, Seed: 7}
	results := RunAll(opts, exps, 1)
	for i, e := range exps {
		direct := e.Run(Options{Quick: true, Seed: 7})
		if results[i].Table.JSON() != direct.JSON() {
			t.Errorf("%s: RunAll table differs from direct Run", e.ID)
		}
		if results[i].SimCycles == 0 {
			t.Errorf("%s: RunAll reported zero simulated cycles", e.ID)
		}
		if results[i].HostNS <= 0 {
			t.Errorf("%s: RunAll reported non-positive host time", e.ID)
		}
	}
}

// TestHostNSExcludesQueueWait pins what HostNS measures: the time an
// experiment's jobs spent inside pool slots. With one shard the jobs of all
// experiments run one at a time, so their summed host time cannot exceed the
// wall time of the whole run; a per-experiment clock that also counted the
// wait for the slot would report close to the whole run for each.
func TestHostNSExcludesQueueWait(t *testing.T) {
	var exps []Experiment
	for _, id := range []string{"E2", "E8", "E13"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s missing from the registry", id)
		}
		exps = append(exps, e)
	}
	start := time.Now()
	results := RunAll(Options{Quick: true, Seed: 7}, exps, 1)
	wall := time.Since(start).Nanoseconds()
	var sum int64
	for i, r := range results {
		if r.HostNS <= 0 {
			t.Errorf("%s: non-positive host time %d", exps[i].ID, r.HostNS)
		}
		sum += r.HostNS
	}
	if sum > wall {
		t.Errorf("summed HostNS %d ns exceeds the %d ns wall time of a serial run", sum, wall)
	}
}

// TestSweepKeepsItemOrder forces a 4-wide pool to finish its items in
// reverse order — each job waits for the next item's job to finish — and
// checks that sweep still returns results in item order.
func TestSweepKeepsItemOrder(t *testing.T) {
	const n = 4
	gates := make([]chan struct{}, n)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	var finished []int // appended in gate order, so the gates serialize it
	opts := Options{pool: newPool(n), tally: &tally{}}
	got := sweep(opts, []int{0, 1, 2, 3}, func(_ Options, i int) int {
		if i < n-1 {
			<-gates[i]
		}
		finished = append(finished, i)
		if i > 0 {
			close(gates[i-1])
		}
		return 10 * i
	})
	if want := []int{0, 10, 20, 30}; !slices.Equal(got, want) {
		t.Errorf("sweep returned %v, want item order %v", got, want)
	}
	if want := []int{3, 2, 1, 0}; !slices.Equal(finished, want) {
		t.Errorf("jobs finished in order %v, want %v", finished, want)
	}
}
