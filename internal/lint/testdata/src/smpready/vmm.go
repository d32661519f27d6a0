// Package vmm is smpready-analyzer testdata loaded under the production
// import path overshadow/internal/vmm (one of the gated machine-model
// packages). It declares package-level vars written in each of the ways
// the rule recognizes, next to never-written and allowed ones.
package vmm

var epoch uint64 // want `package-level var epoch is written at runtime; machine state belongs on a World, VMM, or vCPU`

var table = map[int]int{} // want `package-level var table is written at runtime; machine state belongs on a World, VMM, or vCPU`

var cfg struct{ depth int } // want `package-level var cfg is written at runtime; machine state belongs on a World, VMM, or vCPU`

// Never written: sentinel values carry no race.
var Sentinel = errString("boom")

// Only read: a lookup table initialized once is not shared mutable state.
var names = []string{"a", "b"}

type errString string

func (e errString) Error() string { return string(e) }

//overlint:allow smpready -- testdata: deliberate exception
var allowedVar int

// VMM's fields are machine state owned by one World: writes to them are
// serialized by the scheduler baton and are not findings.
type VMM struct {
	hits uint64
	buf  []byte
}

func (v *VMM) Translate(addr uint64) uint64 {
	epoch++
	table[1] = 2
	cfg.depth = 3
	allowedVar = 1
	v.hits++
	v.buf = nil
	return addr + uint64(len(names[0]))
}
