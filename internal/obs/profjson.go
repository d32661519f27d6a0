package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// ProfileSchema identifies the profile artifact format. Bump on any breaking
// change so downstream tooling can refuse artifacts it cannot read.
const ProfileSchema = "overshadow-profile/v1"

// ProfHistJSON is one (kind, domain) duration histogram of a profile
// artifact.
type ProfHistJSON struct {
	Kind   string `json:"kind"`
	Domain uint32 `json:"domain"`
	HistogramJSON
}

// ProfileJSON is the machine-readable profile artifact: folded stacks in
// deterministic order plus the per-(kind, domain) duration histograms. It is
// what overbench emits and what cmd/overprof renders.
type ProfileJSON struct {
	Schema      string `json:"schema"`
	TotalCycles uint64 `json:"total_cycles"`
	// DroppedSpans is the companion trace rings' dropped-span total —
	// surfaced in every export so trace truncation is never silent. The
	// histograms themselves are fed at span completion and are complete
	// regardless.
	DroppedSpans uint64         `json:"dropped_spans"`
	Folded       []FoldedLine   `json:"folded"`
	Histograms   []ProfHistJSON `json:"histograms"`
}

// BuildProfileJSON renders p as the versioned artifact, fully key-sorted.
func BuildProfileJSON(p *Profile) *ProfileJSON {
	doc := &ProfileJSON{
		Schema:       ProfileSchema,
		TotalCycles:  p.TotalCycles(),
		DroppedSpans: p.Dropped(),
		Folded:       p.FoldedLines(),
	}
	for _, e := range p.Hists() {
		doc.Histograms = append(doc.Histograms, ProfHistJSON{
			Kind:          e.Key.Kind.String(),
			Domain:        e.Key.Domain,
			HistogramJSON: BuildHistogramJSON(e.Hist),
		})
	}
	return doc
}

// WriteProfileJSON serializes the artifact with stable indentation.
func WriteProfileJSON(w io.Writer, doc *ProfileJSON) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ParseProfileJSON decodes an artifact and checks its schema tag.
func ParseProfileJSON(data []byte) (*ProfileJSON, error) {
	var doc ProfileJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse profile: %w", err)
	}
	if doc.Schema != ProfileSchema {
		return nil, fmt.Errorf("parse profile: schema %q, want %q", doc.Schema, ProfileSchema)
	}
	return &doc, nil
}

// WriteFolded prints the artifact's folded stacks in the standard
// flame-graph collapsed format: "frame;frame;leaf cycles" per line.
func WriteFolded(w io.Writer, doc *ProfileJSON) error {
	for _, l := range doc.Folded {
		if _, err := fmt.Fprintf(w, "%s %d\n", l.Stack, l.Cycles); err != nil {
			return err
		}
	}
	return nil
}

// FrameStat is one row of the top-N table: a frame's self cycles (charged
// with the frame innermost) and total cycles (charged anywhere beneath it).
type FrameStat struct {
	Frame string
	Self  uint64
	Total uint64
}

// TopFrames computes per-frame self/total cycles from the folded stacks
// using standard flame-graph semantics — each line's cycles count toward the
// total of every distinct frame on the stack and toward the self of the
// innermost frame — and returns the top n rows ordered by self cycles
// (total, then frame name, break ties). n <= 0 returns every frame.
func TopFrames(doc *ProfileJSON, n int) []FrameStat {
	self := make(map[string]uint64)
	total := make(map[string]uint64)
	seen := make(map[string]bool)
	for _, l := range doc.Folded {
		frames := strings.Split(l.Stack, ";")
		clear(seen)
		for _, f := range frames {
			if !seen[f] {
				seen[f] = true
				total[f] += l.Cycles
			}
		}
		if len(frames) > 0 {
			self[frames[len(frames)-1]] += l.Cycles
		}
	}
	out := make([]FrameStat, 0, len(total))
	//overlint:allow determinism -- rows are collected then fully ordered below
	for f, t := range total {
		out = append(out, FrameStat{Frame: f, Self: self[f], Total: t})
	}
	slices.SortFunc(out, func(a, b FrameStat) int {
		return cmp.Or(cmp.Compare(b.Self, a.Self), cmp.Compare(b.Total, a.Total), cmp.Compare(a.Frame, b.Frame))
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// WriteTopN prints the top-n self/total table with percent-of-total columns.
func WriteTopN(w io.Writer, doc *ProfileJSON, n int) error {
	rows := TopFrames(doc, n)
	if _, err := fmt.Fprintf(w, "%-44s %14s %7s %14s %7s\n", "frame", "self", "self%", "total", "total%"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-44s %14d %6.2f%% %14d %6.2f%%\n",
			r.Frame, r.Self, pct(r.Self, doc.TotalCycles), r.Total, pct(r.Total, doc.TotalCycles)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-44s %14d\n", "total", doc.TotalCycles)
	return err
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// WriteHistTable prints the per-(kind, domain) duration percentile table.
// The dropped-span count is always printed — zero included — so truncation
// of the companion trace is never silent.
func WriteHistTable(w io.Writer, hists []ProfHistJSON, dropped uint64) error {
	if _, err := fmt.Fprintf(w, "%-12s %6s %10s %12s %12s %12s %12s %12s\n",
		"kind", "dom", "count", "min", "p50", "p90", "p99", "max"); err != nil {
		return err
	}
	for _, h := range hists {
		if _, err := fmt.Fprintf(w, "%-12s %6d %10d %12d %12d %12d %12d %12d\n",
			h.Kind, h.Domain, h.Count, h.Min, h.P50, h.P90, h.P99, h.Max); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "dropped spans: %d\n", dropped)
	return err
}
