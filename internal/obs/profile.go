package obs

import (
	"cmp"
	"slices"

	"overshadow/internal/ordered"
)

// The profile is the stack-attributed view of cycle accounting: where
// Metrics answers "which counter, under which task", Profile answers "which
// call chain". sim.World maintains a stack of open spans per guest task;
// every cycle charge lands in the current stack's node, in the leaf cell of
// the charge's counter, and every span completion feeds a per-(kind, domain)
// duration histogram. Like Metrics, the profile is a plain accumulator:
// frames and leaves are slices kept in creation order, merging per-world
// profiles is additive, and every export sorts, so artifacts are
// byte-identical for any shard count.

// ProfNode is one frame of the profile tree. Children are the spans opened
// while this frame was on top; leaves are the counters charged while this
// frame was the innermost open span, one cell per entry of the profile's
// counter-names table.
type ProfNode struct {
	kind     Kind
	name     string
	children []*ProfNode
	leaves   []Cell
}

// Child returns the node for the (kind, name) frame opened under n,
// creating it on first use. The lookup is a scan: a frame has at most a few
// dozen children, and it does not allocate.
func (n *ProfNode) Child(kind Kind, name string) *ProfNode {
	for _, c := range n.children {
		if c.kind == kind && c.name == name {
			return c
		}
	}
	// Amortized: one allocation per distinct (stack, frame) pair — the span
	// vocabulary is a small fixed set, not per-event.
	//overlint:allow hotpathalloc -- lazy node creation, once per distinct stack frame
	c := &ProfNode{kind: kind, name: name, leaves: make([]Cell, len(n.leaves))}
	n.children = append(n.children, c)
	return c
}

// AddLeaf charges cycles at this node under counter ctr, an index into the
// counter-names table. The leaf is exported even when cycles is zero.
func (n *ProfNode) AddLeaf(ctr int, cycles uint64) {
	c := &n.leaves[ctr]
	c.Cycles += cycles
	c.Charged = true
}

// HistKey identifies one duration histogram: the span kind and the cloaking
// domain the span was attributed to (0 = uncloaked/machine context).
type HistKey struct {
	Kind   Kind
	Domain uint32
}

// Profile is the stack-attributed cycle store: a forest of frame trees (one
// root per phase label) plus the per-(kind, domain) span-duration
// histograms. Leaves are indexed like the counter-names table the profile
// was built over.
type Profile struct {
	names []string
	// order lists the counter indices in name order.
	order []int
	roots []*ProfNode
	hists map[HistKey]*Histogram
	// droppedSpans carries the trace ring's RingStats.Dropped so every
	// histogram export can state whether the companion trace was truncated.
	// The histograms themselves are fed at span completion, not from the
	// ring, so they are complete even when the ring wrapped — but a consumer
	// correlating them with a trace needs to know the trace is not.
	droppedSpans uint64
}

// NewProfile returns an empty profile over the given counter-names table:
// leaf i of every node accumulates the counter named names[i].
func NewProfile(names []string) *Profile {
	return &Profile{names: names, order: nameOrder(names), hists: make(map[HistKey]*Histogram)}
}

// Root returns the tree root for the given phase label ("" maps to
// "world"), creating it on first use. The root is the base of every task's
// span stack in that world.
func (p *Profile) Root(phase string) *ProfNode {
	if phase == "" {
		phase = "world"
	}
	for _, r := range p.roots {
		if r.name == phase {
			return r
		}
	}
	r := &ProfNode{name: phase, leaves: make([]Cell, len(p.names))}
	p.roots = append(p.roots, r)
	return r
}

// AddDropped accumulates the companion trace ring's dropped-span count.
func (p *Profile) AddDropped(n uint64) { p.droppedSpans += n }

// Dropped reports the accumulated dropped-span count of the companion
// trace rings (0 when no ring wrapped or no tracing ran).
func (p *Profile) Dropped() uint64 { return p.droppedSpans }

// Observe records one completed span's duration into the (kind, domain)
// histogram.
func (p *Profile) Observe(kind Kind, domain uint32, dur uint64) {
	k := HistKey{Kind: kind, Domain: domain}
	h := p.hists[k]
	if h == nil {
		// Amortized: one allocation per distinct (kind, domain) pair.
		//overlint:allow hotpathalloc -- lazy histogram creation, once per (kind, domain)
		h = &Histogram{}
		p.hists[k] = h
	}
	h.Record(dur)
}

// HistEntry is one (key, histogram) pair of the key-sorted histogram view.
type HistEntry struct {
	Key  HistKey
	Hist *Histogram
}

// Hists returns every duration histogram sorted by (kind, domain) — the
// deterministic order every export uses.
func (p *Profile) Hists() []HistEntry {
	keys := ordered.Keys(p.hists, func(a, b HistKey) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Domain, b.Domain))
	})
	out := make([]HistEntry, len(keys))
	for i, k := range keys {
		out[i] = HistEntry{Key: k, Hist: p.hists[k]}
	}
	return out
}

// HistByKind merges the per-domain histograms of one span kind into a
// single distribution.
func (p *Profile) HistByKind(kind Kind) *Histogram {
	var h Histogram
	for _, e := range p.Hists() {
		if e.Key.Kind == kind {
			h.Merge(e.Hist)
		}
	}
	return &h
}

// Merge adds every node and histogram of other, which must share p's names
// table, into p. All accumulation is additive (cycles) or commutative
// folding (histograms), so merging the same per-world profiles in any order
// yields an identical profile.
func (p *Profile) Merge(other *Profile) {
	if other == nil {
		return
	}
	for _, r := range other.roots {
		mergeNode(p.Root(r.name), r)
	}
	for _, e := range other.Hists() {
		dst := p.hists[e.Key]
		if dst == nil {
			dst = &Histogram{}
			p.hists[e.Key] = dst
		}
		dst.Merge(e.Hist)
	}
	p.droppedSpans += other.droppedSpans
}

func mergeNode(dst, src *ProfNode) {
	for i, c := range src.leaves {
		dst.leaves[i].add(c)
	}
	for _, child := range src.children {
		mergeNode(dst.Child(child.kind, child.name), child)
	}
}

// TotalCycles sums every leaf in the profile.
func (p *Profile) TotalCycles() uint64 {
	var total uint64
	for _, r := range p.roots {
		total += nodeTotal(r)
	}
	return total
}

func nodeTotal(n *ProfNode) uint64 {
	var total uint64
	for _, c := range n.leaves {
		total += c.Cycles
	}
	for _, child := range n.children {
		total += nodeTotal(child)
	}
	return total
}

// FoldedLine is one folded-stack sample: semicolon-joined frames (innermost
// last; the final frame is the charged counter) and the cycles attributed
// to exactly that stack.
type FoldedLine struct {
	Stack  string `json:"stack"`
	Cycles uint64 `json:"cycles"`
}

// FoldedLines renders the profile as folded stacks in deterministic order:
// depth-first over frames sorted by (kind, name), charged leaves in name
// order, with roots sorted by phase. The format is directly consumable by
// standard flame-graph tooling (stack-semicolon-separated, count last).
func (p *Profile) FoldedLines() []FoldedLine {
	var out []FoldedLine
	for _, r := range sortedFrames(p.roots) {
		out = p.appendFolded(out, r, r.name)
	}
	return out
}

// appendFolded emits node's charged leaves then recurses into sorted
// children.
func (p *Profile) appendFolded(out []FoldedLine, n *ProfNode, prefix string) []FoldedLine {
	for _, i := range p.order {
		if c := n.leaves[i]; c.Charged {
			out = append(out, FoldedLine{Stack: prefix + ";" + p.names[i], Cycles: c.Cycles})
		}
	}
	for _, c := range sortedFrames(n.children) {
		out = p.appendFolded(out, c, prefix+";"+c.kind.String()+"/"+c.name)
	}
	return out
}

// sortedFrames returns a copy of nodes ordered by (kind, name). Roots all
// have the zero kind, so they sort by phase.
func sortedFrames(nodes []*ProfNode) []*ProfNode {
	out := slices.Clone(nodes)
	slices.SortFunc(out, func(a, b *ProfNode) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.name, b.name))
	})
	return out
}
