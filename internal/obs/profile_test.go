package obs

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// profCharge is one charge of a test profile: a stack of frames under a
// phase root, then the counter it lands on.
type profCharge struct {
	phase  string
	frames []profFrame
	ctr    string
	cycles uint64
}

type profFrame struct {
	kind Kind
	name string
}

// chargeProfile walks each charge's stack from its root, creating frames as
// the simulator's span pushes do, and charges the leaf.
func chargeProfile(p *Profile, charges []profCharge) {
	for _, c := range charges {
		n := p.Root(c.phase)
		for _, f := range c.frames {
			n = n.Child(f.kind, f.name)
		}
		n.AddLeaf(slices.Index(p.names, c.ctr), c.cycles)
	}
}

func profileBytes(t *testing.T, p *Profile) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteProfileJSON(&b, BuildProfileJSON(p)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// profFixture charges two phases, sibling frames whose kind order and name
// order disagree, and several leaves per node (one of them zero-cycle).
var profFixture = []profCharge{
	{"E2", nil, "mem.access", 5},
	{"E2", []profFrame{{KindDisk, "aa"}}, "z.ctr", 7},
	{"E2", []profFrame{{KindSyscall, "zz"}}, "vmm.worldswitch", 3},
	{"E2", []profFrame{{KindSyscall, "zz"}}, "a.ctr", 2},
	{"E2", []profFrame{{KindSyscall, "zz"}, {KindCloak, "encrypt"}}, "cloak.encrypt", 11},
	{"E2", []profFrame{{KindSyscall, "read"}}, "cpu.idle", 0},
	{"E1", []profFrame{{KindSyscall, "zz"}}, "mem.access", 13},
	{"E1", nil, "a.ctr", 1},
}

func TestProfileZeroCycleLeafIsExported(t *testing.T) {
	p := NewProfile(testNames)
	chargeProfile(p, []profCharge{{"E2", []profFrame{{KindCloak, "fault"}}, "cloak.encrypt", 0}})
	want := []FoldedLine{{Stack: "E2;cloak/fault;cloak.encrypt", Cycles: 0}}
	if got := p.FoldedLines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FoldedLines = %v, want %v", got, want)
	}
	if got := p.TotalCycles(); got != 0 {
		t.Fatalf("TotalCycles = %d, want 0", got)
	}
}

func TestProfileFoldedOrderIndependentOfBuildOrder(t *testing.T) {
	build := func(charges []profCharge) *Profile {
		p := NewProfile(testNames)
		chargeProfile(p, charges)
		p.Observe(KindSyscall, 2, 40)
		p.Observe(KindDisk, 0, 900)
		return p
	}
	reversed := slices.Clone(profFixture)
	slices.Reverse(reversed)
	fwd, rev := build(profFixture), build(reversed)

	// Roots by phase; within a node, charged leaves in name order, then
	// children by (kind, name): syscall sorts before disk although "zz"
	// sorts after "aa".
	want := []FoldedLine{
		{"E1;a.ctr", 1},
		{"E1;syscall/zz;mem.access", 13},
		{"E2;mem.access", 5},
		{"E2;syscall/read;cpu.idle", 0},
		{"E2;syscall/zz;a.ctr", 2},
		{"E2;syscall/zz;vmm.worldswitch", 3},
		{"E2;syscall/zz;cloak/encrypt;cloak.encrypt", 11},
		{"E2;disk/aa;z.ctr", 7},
	}
	for _, p := range []*Profile{fwd, rev} {
		if got := p.FoldedLines(); !reflect.DeepEqual(got, want) {
			t.Fatalf("FoldedLines = %v, want %v", got, want)
		}
		if got := p.TotalCycles(); got != 42 {
			t.Fatalf("TotalCycles = %d, want 42", got)
		}
	}
	if a, b := profileBytes(t, fwd), profileBytes(t, rev); !bytes.Equal(a, b) {
		t.Fatalf("profile JSON depends on build order:\n%s\nvs\n%s", a, b)
	}
}

func TestProfileMergeCommutes(t *testing.T) {
	half := len(profFixture) / 2
	build := func(charges []profCharge, dur uint64, dropped uint64) *Profile {
		p := NewProfile(testNames)
		chargeProfile(p, charges)
		p.Observe(KindSyscall, 2, dur)
		p.Observe(KindCloak, 1, dur*3)
		p.AddDropped(dropped)
		return p
	}
	a := func() *Profile { return build(profFixture[:half], 40, 1) }
	b := func() *Profile { return build(profFixture[half:], 70, 2) }

	ab, ba := a(), b()
	ab.Merge(b())
	ba.Merge(a())
	if x, y := profileBytes(t, ab), profileBytes(t, ba); !bytes.Equal(x, y) {
		t.Fatalf("A.Merge(B) != B.Merge(A):\n%s\nvs\n%s", x, y)
	}
	if got := ab.TotalCycles(); got != 42 {
		t.Fatalf("merged TotalCycles = %d, want 42", got)
	}
	if got := ab.Dropped(); got != 3 {
		t.Fatalf("merged Dropped = %d, want 3", got)
	}
	if got := ab.HistByKind(KindSyscall).Count(); got != 2 {
		t.Fatalf("merged syscall histogram count = %d, want 2", got)
	}
	// The merge of the two halves is the profile of all the charges.
	whole := NewProfile(testNames)
	chargeProfile(whole, profFixture)
	if got, want := ab.FoldedLines(), whole.FoldedLines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged FoldedLines = %v, want %v", got, want)
	}
}

func TestProfileRootDefaultsToWorld(t *testing.T) {
	p := NewProfile(testNames)
	if p.Root("") != p.Root("world") {
		t.Fatal(`Root("") and Root("world") are different nodes`)
	}
	p.Root("").AddLeaf(slices.Index(testNames, "z.ctr"), 9)
	want := []FoldedLine{{Stack: "world;z.ctr", Cycles: 9}}
	if got := p.FoldedLines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FoldedLines = %v, want %v", got, want)
	}
}
