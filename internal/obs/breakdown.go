package obs

import (
	"fmt"
	"io"
	"sort"
)

// WriteBreakdown renders the attributed metrics as a flame-style text
// profile: attribution keys sorted by descending cycle share, counters
// sorted the same way within each key. Ties keep the snapshot's key and name
// order, so the output is byte-identical per seed.
func WriteBreakdown(w io.Writer, m *Metrics) error {
	points := m.Snapshot()
	total := m.TotalCycles()
	if _, err := fmt.Fprintf(w, "attributed cycle breakdown — total %d cycles\n", total); err != nil {
		return err
	}
	if total == 0 {
		_, err := fmt.Fprintln(w, "(no attributed cycles)")
		return err
	}

	type group struct {
		attr   Attr
		cycles uint64
		points []MetricPoint
	}
	// Snapshot order groups each attribution key's points together, in key
	// order; the stable sorts below keep that order among equal shares.
	var groups []*group
	for _, p := range points {
		if len(groups) == 0 || groups[len(groups)-1].attr != p.Attr {
			groups = append(groups, &group{attr: p.Attr})
		}
		g := groups[len(groups)-1]
		g.cycles += p.Cycles
		g.points = append(g.points, p)
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].cycles > groups[j].cycles })
	pct := func(c uint64) float64 { return 100 * float64(c) / float64(total) }
	for _, g := range groups {
		if _, err := fmt.Fprintf(w, "\n%s — %d cycles (%.1f%%)\n", g.attr, g.cycles, pct(g.cycles)); err != nil {
			return err
		}
		sort.SliceStable(g.points, func(i, j int) bool { return g.points[i].Cycles > g.points[j].Cycles })
		for _, p := range g.points {
			line := fmt.Sprintf("  %-24s %14d  %5.1f%%", p.Name, p.Cycles, pct(p.Cycles))
			if p.Events != 0 {
				line += fmt.Sprintf("  (%d events)", p.Events)
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}
