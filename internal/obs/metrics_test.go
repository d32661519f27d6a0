package obs

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// testNames is a counter-names table for the tests, deliberately not in
// name order: exports must sort by name, not by counter index.
var testNames = []string{"vmm.worldswitch", "mem.access", "cloak.encrypt", "cpu.idle", "vmm.ctc.save", "z.ctr", "a.ctr"}

// charge adds one charge to the named counter of a's row, the way the
// simulator's charge path does.
func charge(m *Metrics, a Attr, name string, cycles, events uint64) {
	c := &m.Row(a)[slices.Index(m.names, name)]
	c.Cycles += cycles
	c.Events += events
	c.Charged = true
}

func TestMetricsChargeAndTotals(t *testing.T) {
	m := NewMetrics(testNames)
	a := Attr{PID: 3, TID: 3, Task: "kv", Cloaked: true, Domain: 2}
	b := Attr{PID: 4, TID: 4, Task: "web"}
	charge(m, a, "cloak.encrypt", 100, 1)
	charge(m, a, "cloak.encrypt", 50, 1)
	charge(m, a, "mem.access", 8, 2)
	charge(m, b, "mem.access", 4, 1)
	charge(m, b, "cpu.idle", 1000, 0)

	if got := m.TotalCycles(); got != 1162 {
		t.Fatalf("TotalCycles = %d, want 1162", got)
	}
	// One entry per counter, in name order: a.ctr, cloak.encrypt, cpu.idle,
	// mem.access, vmm.ctc.save, vmm.worldswitch, z.ctr.
	want := []CounterTotal{
		{Counter: 6},
		{Counter: 2, Cycles: 150},
		{Counter: 3, Cycles: 1000},
		{Counter: 1, Cycles: 12},
		{Counter: 4},
		{Counter: 0},
		{Counter: 5},
	}
	if got := m.Totals(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Totals = %v, want %v", got, want)
	}
}

func TestMetricsSnapshotDeterministicOrder(t *testing.T) {
	build := func(order []int) []MetricPoint {
		m := NewMetrics(testNames)
		attrs := []Attr{{PID: 1, TID: 1}, {PID: 2, TID: 2}, {Phase: "E2", PID: 1, TID: 1}}
		for _, i := range order {
			charge(m, attrs[i], "z.ctr", uint64(10*(i+1)), 1)
			charge(m, attrs[i], "a.ctr", uint64(i+1), 1)
		}
		return m.Snapshot()
	}
	s1 := build([]int{0, 1, 2})
	s2 := build([]int{2, 0, 1})
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshot order depends on insertion order:\n%v\n%v", s1, s2)
	}
	// Counter names alphabetical within each attr.
	if s1[0].Name != "a.ctr" || s1[1].Name != "z.ctr" {
		t.Fatalf("counter order: %v", s1)
	}
}

func TestMetricsZeroEventsCreateNoCount(t *testing.T) {
	m := NewMetrics(testNames)
	charge(m, Attr{}, "cpu.idle", 500, 0)
	m.Row(Attr{PID: 9, TID: 9}) // interned but never charged: not exported
	snap := m.Snapshot()
	if len(snap) != 1 || snap[0].Events != 0 || snap[0].Cycles != 500 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestAttrCompareMatchesFieldOrder pins the export order of attribution
// keys: phase, domain, pid, tid, task, then uncloaked before cloaked.
func TestAttrCompareMatchesFieldOrder(t *testing.T) {
	sorted := []Attr{
		{},
		{TID: 1},
		{PID: 1},
		{PID: 1, TID: 1, Task: "a"},
		{PID: 1, TID: 1, Task: "a", Cloaked: true},
		{PID: 1, TID: 1, Task: "ab"},
		{PID: 2},
		{Domain: 1},
		{Domain: 10},
		{Phase: "E2"},
		{Phase: "E2/cloaked"},
	}
	for i := range sorted {
		for j := range sorted {
			if got, want := sorted[i].compare(sorted[j]), cmp.Compare(i, j); got != want {
				t.Errorf("compare(%+v, %+v) = %d, want %d", sorted[i], sorted[j], got, want)
			}
		}
	}
}

// TestMetricsMergeAdds: merging two stores adds cell by cell and keeps a
// cell charged with nothing.
func TestMetricsMergeAdds(t *testing.T) {
	a := Attr{PID: 1, TID: 1}
	m, o := NewMetrics(testNames), NewMetrics(testNames)
	charge(m, a, "mem.access", 5, 1)
	charge(o, a, "mem.access", 7, 2)
	charge(o, Attr{}, "cpu.idle", 0, 0)
	m.Merge(o)
	want := []MetricPoint{
		{Attr: Attr{}, Name: "cpu.idle"},
		{Attr: a, Name: "mem.access", Cycles: 12, Events: 3},
	}
	if got := m.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged snapshot = %+v, want %+v", got, want)
	}
}

func TestAttrString(t *testing.T) {
	if got := (Attr{}).String(); got != "machine" {
		t.Fatalf("zero attr = %q", got)
	}
	a := Attr{Phase: "E2/cloaked", Domain: 2, PID: 3, TID: 4, Task: "kv", Cloaked: true}
	s := a.String()
	for _, want := range []string{"E2/cloaked", "pid 3", "tid 4", `"kv"`, "dom 2", "cloaked"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Attr.String() = %q, missing %q", s, want)
		}
	}
}
