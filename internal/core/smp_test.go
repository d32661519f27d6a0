package core

import (
	"fmt"
	"reflect"
	"testing"

	"overshadow/internal/obs"
	"overshadow/internal/sim"
	"overshadow/internal/workload"
)

// smpWorkload boots an n-vCPU machine with enough concurrent processes that
// every vCPU runs, queues go imbalanced (so the scheduler migrates), and
// shadow invalidations hit warm remote TLBs (so shootdowns fire).
func smpWorkload(t *testing.T, n int, seed uint64) *System {
	t.Helper()
	sys := NewSystem(Config{MemoryPages: 512, VCPUs: n, Seed: seed})
	sys.Register("mix", workload.ProcessMixProgram(workload.ProcessMixConfig{
		Jobs: 3, UnitsPerJob: 50_000, FilesPerJob: 2, FileKB: 8,
	}))
	sys.Register("paging", workload.PagingProgram(workload.PagingConfig{
		WorkingSetPages: 200, Sweeps: 2,
	}))
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("spin%d", i)
		sys.Register(name, func(e Env) {
			b, err := e.Alloc(8)
			if err != nil {
				return
			}
			for r := 0; r < 40; r++ {
				for p := 0; p < 8; p++ {
					e.Store64(b+Addr(p*PageSize), uint64(r))
				}
				e.Yield()
			}
		})
		if _, err := sys.Spawn(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Spawn("mix", Cloaked()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Spawn("paging", Cloaked()); err != nil {
		t.Fatal(err)
	}
	return sys
}

// smpFingerprint runs the workload to completion and reduces the entire
// observable machine to a comparable snapshot: final clock, per-vCPU cycle
// counters, global counters, and the full span trace (kind/name/arg/start/
// duration of every scheduling decision and charge the tracer saw).
type smpFingerprint struct {
	clock    sim.Cycles
	perCPU   []sim.Cycles
	counters map[sim.Counter]uint64
	spans    []obs.Span
}

func smpRun(t *testing.T, n int, seed uint64) smpFingerprint {
	t.Helper()
	sys := smpWorkload(t, n, seed)
	sys.World.EnableTrace(1 << 16)
	sys.Run()
	fp := smpFingerprint{
		clock:    sys.Now(),
		counters: sys.Stats().Snapshot(),
	}
	for _, c := range sys.World.VCPUs() {
		fp.perCPU = append(fp.perCPU, c.Cycles())
	}
	fp.spans, _ = sys.World.TraceSpans()
	return fp
}

// TestSMPSeededInterleavingDeterminism is the seeded-interleaving property
// test: at 2 and at 4 vCPUs, two runs with the same seed must produce the
// identical schedule — same clock, same per-vCPU cycle split, same counters,
// and a span-for-span identical trace. A different seed must produce a
// different interleaving (otherwise the property is vacuous).
func TestSMPSeededInterleavingDeterminism(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("vcpus=%d", n), func(t *testing.T) {
			a := smpRun(t, n, 77)
			b := smpRun(t, n, 77)
			if a.clock != b.clock {
				t.Fatalf("clock diverged across same-seed runs: %d vs %d", a.clock, b.clock)
			}
			for i := range a.perCPU {
				if a.perCPU[i] != b.perCPU[i] {
					t.Fatalf("vCPU %d cycles diverged: %d vs %d", i, a.perCPU[i], b.perCPU[i])
				}
			}
			if len(a.counters) != len(b.counters) {
				t.Fatalf("counter sets differ: %d vs %d", len(a.counters), len(b.counters))
			}
			for k, v := range a.counters {
				if b.counters[k] != v {
					t.Fatalf("counter %s diverged: %d vs %d", k, v, b.counters[k])
				}
			}
			if len(a.spans) != len(b.spans) {
				t.Fatalf("trace lengths differ: %d vs %d spans", len(a.spans), len(b.spans))
			}
			for i := range a.spans {
				if a.spans[i] != b.spans[i] {
					t.Fatalf("span %d diverged:\n  %+v\nvs\n  %+v", i, a.spans[i], b.spans[i])
				}
			}

			other := smpRun(t, n, 78)
			if other.clock == a.clock && len(other.spans) == len(a.spans) {
				same := true
				for i := range a.spans {
					if a.spans[i] != other.spans[i] {
						same = false
						break
					}
				}
				if same {
					t.Fatal("seed 77 and 78 produced identical schedules; the seed is not feeding the interleaving")
				}
			}
		})
	}
}

// TestSMPCycleConservation pins the accounting invariant behind every
// multi-vCPU table: the global clock is exactly the sum of the per-vCPU
// cycle counters — no cycle is charged twice and none vanishes, including
// TLB-shootdown and migration costs.
func TestSMPCycleConservation(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("vcpus=%d", n), func(t *testing.T) {
			sys := smpWorkload(t, n, 5)
			sys.Run()
			var sum sim.Cycles
			for _, c := range sys.World.VCPUs() {
				sum += c.Cycles()
			}
			if sum != sys.Now() {
				t.Fatalf("per-vCPU cycles sum %d != clock %d (leak of %d)", sum, sys.Now(), sys.Now()-sum)
			}
			migrations := sys.Stats().Get(sim.CtrMigration)
			if n == 1 && migrations != 0 {
				t.Fatalf("migrations on a 1-vCPU machine = %d, want 0", migrations)
			}
			if n == 4 && migrations == 0 {
				t.Fatal("no thread migrations at 4 vCPUs; the multi-queue scheduler never rebalanced")
			}
		})
	}
}

// TestAttributionAlwaysOn: with no observer, no phase and no export, the
// counter store still attributes every cycle. At 1 and 4 vCPUs the
// attributed cycles sum to the clock, and every counter's flat Get equals
// the events summed over its attributed cells.
func TestAttributionAlwaysOn(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("vcpus=%d", n), func(t *testing.T) {
			sys := smpWorkload(t, n, 5)
			sys.Run()
			m := sys.Stats().Attributed()
			if got, want := m.TotalCycles(), uint64(sys.Now()); got != want {
				t.Fatalf("attributed cycles = %d, clock = %d", got, want)
			}
			events := map[string]uint64{}
			for _, p := range m.Snapshot() {
				if p.Events != 0 {
					events[p.Name] += p.Events
				}
			}
			flat := map[string]uint64{}
			for ctr := range sys.Stats().Snapshot() {
				flat[ctr.String()] = sys.Stats().Get(ctr)
			}
			if len(flat) == 0 || !reflect.DeepEqual(flat, events) {
				t.Fatalf("flat Get = %v\nattributed events = %v", flat, events)
			}
		})
	}
}
