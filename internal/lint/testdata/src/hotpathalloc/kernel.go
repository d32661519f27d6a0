// Package guestos is hotpathalloc-analyzer testdata loaded under the
// production import path overshadow/internal/guestos. Kernel.switchTo is a
// hot root; everything it reaches is on the hot path, and structurally
// identical code outside the closure must stay silent.
package guestos

import (
	"cmp"
	"fmt"
	"slices"

	"overshadow/internal/ordered"
)

type node struct{ v int }

type Kernel struct {
	runq []int
	seen map[int]bool
	buf  []byte
}

// switchTo is a hot-path root by name.
func (k *Kernel) switchTo(n int) {
	b := make([]byte, 64) // want `make \(heap allocation\) on hot path \(Kernel\.switchTo\)`
	_ = b
	k.helper(n)
	_ = k.name("p", n)
	k.box(n)
	_ = k.fail(n)
	_ = k.alloc()
	_ = k.conv("x")
	k.lits()
	k.traced(n)
	k.allowedAlloc()
	k.sorted(k.runq)
	if n < 0 {
		// Failure paths are cold: the panic argument may allocate.
		panic(fmt.Sprintf("bad slice %d", n))
	}
}

// helper is hot purely by reachability from switchTo.
func (k *Kernel) helper(n int) {
	// Self-append: the run queue grows to steady-state capacity and stops
	// allocating; exempt.
	k.runq = append(k.runq, n)
	tmp := append(k.buf, byte(n)) // want `append \(growth reallocates\) on hot path \(Kernel\.helper\)`
	_ = tmp
	for g := range k.seen { // want `map range \(randomized order, cache-hostile\) on hot path \(Kernel\.helper\)`
		_ = g
	}
	_ = countKeys(k.seen)
}

// countKeys is hot by reachability, and its range over a type parameter
// whose core type is a map is a map range.
func countKeys[M ~map[K]V, K comparable, V any](m M) int {
	n := 0
	for range m { // want `map range \(randomized order, cache-hostile\) on hot path \(countKeys\)`
		n++
	}
	return n
}

func (k *Kernel) name(s string, v int) string {
	return s + label(v) // want `string concatenation on hot path \(Kernel\.name\)`
}

func label(v int) string {
	if v == 0 {
		return "zero"
	}
	return "other"
}

func (k *Kernel) box(v int) {
	sink(v) // want `interface boxing \(int to interface\{\}\) on hot path \(Kernel\.box\)`
}

func sink(x interface{}) { _ = x }

// sorted passes values to type-parameter parameters: a type parameter does
// not box, so the generic sort and comparator are accepted. The sorted key
// walk still allocates its slice, and a concrete value passed to an any
// parameter still boxes.
func (k *Kernel) sorted(xs []int) {
	slices.SortFunc(xs, cmp.Compare[int])
	slices.SortFunc(xs, func(a, b int) int { return cmp.Or(cmp.Compare(a%2, b%2), cmp.Compare(a, b)) })
	k.runq = slices.Insert(k.runq, 0, xs...)
	for _, g := range ordered.Keys(k.seen, cmp.Compare[int]) { // want `allocating call \(ordered\.Keys\) on hot path \(Kernel\.sorted\)`
		_ = g
	}
	sinkAny(xs[0])        // want `interface boxing \(int to any\) on hot path \(Kernel\.sorted\)`
	_ = fmt.Sprint(xs[0]) // want `allocating call \(fmt\.Sprint\) on hot path \(Kernel\.sorted\)` `interface boxing \(int to any\) on hot path \(Kernel\.sorted\)`
}

func sinkAny(x any) { _ = x }

// Error construction is cold even inside a hot function.
func (k *Kernel) fail(n int) error {
	if n > 0 {
		return fmt.Errorf("bad %d", n)
	}
	return nil
}

func (k *Kernel) alloc() *node {
	return &node{v: 1} // want `heap allocation \(&composite literal\) on hot path \(Kernel\.alloc\)`
}

func (k *Kernel) conv(s string) []byte {
	return []byte(s) // want `string/\[\]byte conversion \(copies\) on hot path \(Kernel\.conv\)`
}

func (k *Kernel) lits() {
	xs := []int{1, 2} // want `slice literal \(heap allocation\) on hot path \(Kernel\.lits\)`
	_ = xs
}

func (k *Kernel) TraceEnabled() bool { return false }

// A TraceEnabled guard marks its body cold: the protected fast path is the
// trace-disabled one.
func (k *Kernel) traced(n int) {
	if k.TraceEnabled() {
		_ = fmt.Sprint(n)
	}
}

// coldSetup is structurally identical to hot code but unreachable from any
// root: no findings.
func (k *Kernel) coldSetup() {
	k.seen = make(map[int]bool)
	ys := []int{3}
	_ = ys
}

// An allow comment suppresses a hot-path finding.
func (k *Kernel) allowedAlloc() {
	//overlint:allow hotpathalloc -- testdata: deliberate exception
	b := make([]byte, 8)
	_ = b
	k2 := k
	_ = k2
}
