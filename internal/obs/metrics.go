package obs

import (
	"slices"
	"sort"
)

// Cell is one (attribution key, counter) accumulator. Charged records that a
// charge landed on it, so a cell charged zero cycles and zero events still
// shows in every export.
type Cell struct {
	Cycles  uint64
	Events  uint64
	Charged bool
}

// add folds o into c.
func (c *Cell) add(o Cell) {
	c.Cycles += o.Cycles
	c.Events += o.Events
	c.Charged = c.Charged || o.Charged
}

// Metrics is the attributed cycle-accounting store: one dense row of cells
// per attribution key, each row indexed like the counter-names table the
// store was built over. A key's row is interned once (Row), so charging it is
// an array add. Rows are kept in interning order and every export sorts, so
// two runs with the same seed produce identical snapshots.
type Metrics struct {
	names []string
	// order lists the counter indices in name order.
	order []int
	attrs []Attr
	rows  [][]Cell
	ids   map[Attr]int
}

// NewMetrics returns an empty store over the given counter-names table:
// cell i of every row accumulates the counter named names[i].
func NewMetrics(names []string) *Metrics {
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return names[order[i]] < names[order[j]] })
	return &Metrics{names: names, order: order, ids: make(map[Attr]int)}
}

// Row returns a's cells, interning the row on first use. The slice aliases
// the store: callers charge by adding to its cells in place.
func (m *Metrics) Row(a Attr) []Cell {
	if i, ok := m.ids[a]; ok {
		return m.rows[i]
	}
	//overlint:allow hotpathalloc -- one row per attribution key, interned once; the key space (phase × task × domain) is small
	r := make([]Cell, len(m.names))
	m.ids[a] = len(m.rows)
	m.attrs = append(m.attrs, a)
	m.rows = append(m.rows, r)
	return r
}

// Rows returns every row, in interning order.
func (m *Metrics) Rows() [][]Cell { return m.rows }

// TotalCycles reports the sum of all attributed cycles.
func (m *Metrics) TotalCycles() uint64 {
	var total uint64
	for _, r := range m.rows {
		for _, c := range r {
			total += c.Cycles
		}
	}
	return total
}

// CounterTotal is one counter's cycles summed over every row.
type CounterTotal struct {
	// Counter is the counter's index in the names table.
	Counter int
	Cycles  uint64
}

// Totals sums attributed cycles per counter across all attribution keys and
// returns one entry per counter of the names table, in name order. With a
// fixed order, caller iteration — including float accumulation order — is
// deterministic by construction, and two Totals of one store line up index
// by index.
func (m *Metrics) Totals() []CounterTotal {
	out := make([]CounterTotal, 0, len(m.order))
	for _, i := range m.order {
		var cycles uint64
		for _, r := range m.rows {
			cycles += r[i].Cycles
		}
		out = append(out, CounterTotal{Counter: i, Cycles: cycles})
	}
	return out
}

// MetricPoint is one (attribution, counter) cell of a metrics snapshot.
type MetricPoint struct {
	Attr   Attr
	Name   string
	Cycles uint64
	Events uint64
}

// Snapshot flattens the charged cells into a deterministically ordered
// slice: attribution keys in Attr.compare order, counter names alphabetical
// within each.
func (m *Metrics) Snapshot() []MetricPoint {
	byAttr := make([]int, len(m.attrs))
	for i := range byAttr {
		byAttr[i] = i
	}
	slices.SortFunc(byAttr, func(i, j int) int { return m.attrs[i].compare(m.attrs[j]) })
	var out []MetricPoint
	for _, a := range byAttr {
		r := m.rows[a]
		for _, i := range m.order {
			if c := r[i]; c.Charged {
				out = append(out, MetricPoint{Attr: m.attrs[a], Name: m.names[i], Cycles: c.Cycles, Events: c.Events})
			}
		}
	}
	return out
}

// Merge adds every cell of other, which must share m's names table, into m.
// Addition commutes, so merging the same set of per-world stores in any
// order yields identical totals — the property the sharded harness relies
// on for byte-identical exports.
func (m *Metrics) Merge(other *Metrics) {
	for i, a := range other.attrs {
		r := m.Row(a)
		for c, oc := range other.rows[i] {
			r[c].add(oc)
		}
	}
}
