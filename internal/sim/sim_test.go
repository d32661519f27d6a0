package sim

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %d, want 0", c.Now())
	}
	c.Advance(10)
	c.Advance(5)
	if got := c.Now(); got != 15 {
		t.Fatalf("Now() = %d, want 15", got)
	}
	if got := c.Since(10); got != 5 {
		t.Fatalf("Since(10) = %d, want 5", got)
	}
	if got := c.Since(100); got != 0 {
		t.Fatalf("Since(future) = %d, want 0", got)
	}
}

// TestRetryBackoff pins the machine's one retry schedule: the pause doubles
// from 20k cycles.
func TestRetryBackoff(t *testing.T) {
	for attempt, want := range []Cycles{20_000, 40_000, 80_000} {
		if got := RetryBackoff(attempt); got != want {
			t.Errorf("RetryBackoff(%d) = %d, want %d", attempt, got, want)
		}
	}
}

func TestCyclesString(t *testing.T) {
	cases := []struct {
		in   Cycles
		want string
	}{
		{999, "999 cyc"},
		{1500, "1.5 Kcyc"},
		{2_500_000, "2.50 Mcyc"},
		{3_000_000_000, "3.000 Gcyc"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", uint64(c.in), got, c.want)
		}
	}
}

func TestStatsBasics(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	c, s := w.Boot(), w.Stats
	c.ChargeCount(1, CtrSyscall)
	c.ChargeCount(1, CtrSyscall)
	c.ChargeAdd(0, CtrMemAccess, 7)
	if got := s.Get(CtrSyscall); got != 2 {
		t.Fatalf("syscall counter = %d, want 2", got)
	}
	if got := s.Get(CtrMemAccess); got != 7 {
		t.Fatalf("mem counter = %d, want 7", got)
	}
	snap := s.Snapshot()
	c.ChargeCount(1, CtrSyscall)
	d := s.DeltaSince(snap)
	if d[CtrSyscall] != 1 || len(d) != 1 {
		t.Fatalf("delta = %v, want {os.syscall:1}", d)
	}
	// A new phase starts a new attributed store; the flat counts carry on.
	w.SetPhase("p")
	c.ChargeCount(1, CtrSyscall)
	if got := s.Get(CtrSyscall); got != 4 {
		t.Fatalf("syscall counter across a phase change = %d, want 4", got)
	}
}

// TestStatsStringSorted renders every counter: String must order the lines
// by name, not by the counters' enum order.
func TestStatsStringSorted(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	s := w.Stats
	for c := Counter(0); c < numCounters; c++ {
		w.Boot().ChargeAdd(0, c, uint64(c)+1)
	}
	lines := strings.Split(strings.TrimSuffix(s.String(), "\n"), "\n")
	if len(lines) != int(numCounters) {
		t.Fatalf("String rendered %d lines, want %d", len(lines), numCounters)
	}
	names := make([]string, len(lines))
	for i, l := range lines {
		names[i] = strings.Fields(l)[0]
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("stats not sorted by name: %v", names)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds coincide %d/100 times", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint8) bool {
		m := int(n%64) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGBytesFills(t *testing.T) {
	r := NewRNG(5)
	p := make([]byte, 37)
	r.Bytes(p)
	zero := 0
	for _, b := range p {
		if b == 0 {
			zero++
		}
	}
	if zero == len(p) {
		t.Fatal("Bytes left buffer all zero")
	}
}

func TestWorldChargeCount(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	w.Boot().ChargeCount(100, CtrHypercall)
	if w.Now() != 100 {
		t.Fatalf("clock = %d, want 100", w.Now())
	}
	if w.Stats.Get(CtrHypercall) != 1 {
		t.Fatal("counter not incremented")
	}
}

func TestCostModelHelpers(t *testing.T) {
	m := DefaultCostModel()
	if got, want := m.PageCryptCost(4096), m.AESSetup+4096*m.AESPerByte; got != want {
		t.Fatalf("PageCryptCost = %d, want %d", got, want)
	}
	if got, want := m.PageHashCost(4096), m.SHASetup+4096*m.SHAPerByte; got != want {
		t.Fatalf("PageHashCost = %d, want %d", got, want)
	}
}

func TestDefaultCostModelSanity(t *testing.T) {
	m := DefaultCostModel()
	// The relationships the experiments rely on: crypto dominates a world
	// switch; disk dominates crypto; a TLB miss is cheaper than a fault.
	if m.PageCryptCost(4096) <= m.WorldSwitch {
		t.Fatal("page crypt should cost more than a world switch")
	}
	if m.DiskSeek <= m.PageCryptCost(4096) {
		t.Fatal("disk seek should dominate page crypto")
	}
	if m.TLBMiss >= m.HiddenFault {
		t.Fatal("TLB miss should be cheaper than a hidden fault")
	}
}
