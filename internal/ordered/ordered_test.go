package ordered

import (
	"cmp"
	"slices"
	"testing"
)

func TestKeysSorted(t *testing.T) {
	m := map[string]int{"delta": 4, "alpha": 1, "charlie": 3, "bravo": 2}
	got := Keys(m, cmp.Compare[string])
	want := []string{"alpha", "bravo", "charlie", "delta"}
	if !slices.Equal(got, want) {
		t.Errorf("Keys = %v, want %v", got, want)
	}
	// The comparator decides the order, not the key type.
	desc := Keys(m, func(a, b string) int { return cmp.Compare(b, a) })
	slices.Reverse(want)
	if !slices.Equal(desc, want) {
		t.Errorf("Keys descending = %v, want %v", desc, want)
	}
}

// TestKeysNamedMap passes a named map type, as the callers' tables are.
func TestKeysNamedMap(t *testing.T) {
	type table map[uint64]bool
	got := Keys(table{30: true, 10: false, 20: true}, cmp.Compare[uint64])
	if want := []uint64{10, 20, 30}; !slices.Equal(got, want) {
		t.Errorf("Keys = %v, want %v", got, want)
	}
}

func TestKeysEmptyAndNil(t *testing.T) {
	for name, m := range map[string]map[int]int{"empty": {}, "nil": nil} {
		got := Keys(m, cmp.Compare[int])
		if got == nil || len(got) != 0 {
			t.Errorf("%s map: Keys = %#v, want an empty non-nil slice", name, got)
		}
	}
}
