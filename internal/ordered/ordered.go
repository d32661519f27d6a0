// Package ordered holds the module's one sorted walk over a map's keys. Go
// randomizes map iteration order, so code whose output must be a pure
// function of the simulation (serialized bytes, charges, spans, reports)
// takes a map's keys from Keys instead of ranging over the map itself.
package ordered

import "slices"

// Keys returns m's keys sorted by cmp. cmp must be a total order: two
// distinct keys it calls equal would keep map iteration order. A nil or
// empty map yields an empty slice.
func Keys[M ~map[K]V, K comparable, V any](m M, cmp func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	//overlint:allow determinism -- the keys are sorted before they are returned
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}
