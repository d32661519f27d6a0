// Package obs is hotpathalloc-analyzer testdata loaded under the production
// import path overshadow/internal/obs: the profiler entry points (ProfNode
// frame navigation and leaf charging) are hot roots, so per-call allocation
// inside them is a finding, while a structurally identical helper that no
// root reaches stays silent.
package obs

// ProfNode is a profile-tree node with map-keyed children and leaves (the
// real obs.ProfNode holds slices), so its lazy map creation gives the
// analyzer both a finding and an allowed allocation to check.
type ProfNode struct {
	children map[string]*ProfNode
	leaves   map[string]uint64
}

// Child is a hot root by (package, receiver, name): it runs on every span
// begin when profiling is on, so the allocations on the creation path are
// findings unless a reviewed allow comment amortizes them.
func (n *ProfNode) Child(name string) *ProfNode {
	c := n.children[name]
	if c == nil {
		if n.children == nil {
			n.children = make(map[string]*ProfNode) // want `make \(heap allocation\) on hot path`
		}
		c = &ProfNode{} // want `heap allocation \(&composite literal\) on hot path`
		n.children[name] = c
	}
	return c
}

// AddLeaf is also a root; its lazy map creation is deliberate and carries the
// reviewed allow, so it must not be flagged.
func (n *ProfNode) AddLeaf(name string, cycles uint64) {
	if n.leaves == nil {
		//overlint:allow hotpathalloc -- testdata: lazy map creation, once per node
		n.leaves = make(map[string]uint64)
	}
	n.leaves[name] += cycles
}

// lookup is structurally identical to Child but unreachable from any hot
// root: no findings.
func (n *ProfNode) lookup(name string) *ProfNode {
	c := n.children[name]
	if c == nil {
		c = &ProfNode{}
		n.children[name] = c
	}
	return c
}
