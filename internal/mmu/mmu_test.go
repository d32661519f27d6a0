package mmu

import (
	"testing"
	"testing/quick"

	"overshadow/internal/sim"
)

func testWorld() *sim.World { return sim.NewWorld(sim.DefaultCostModel(), 1) }

func TestFlagsString(t *testing.T) {
	f := FlagPresent | FlagWritable | FlagDirty
	if got := f.String(); got != "PW--d-" {
		t.Fatalf("Flags.String() = %q", got)
	}
}

func TestPTEPresent(t *testing.T) {
	if (PTE{}).Present() {
		t.Fatal("zero PTE present")
	}
	if !(PTE{Flags: FlagPresent}).Present() {
		t.Fatal("present PTE not present")
	}
}

func TestCheckPerms(t *testing.T) {
	userRW := PTE{PN: 1, Flags: FlagPresent | FlagWritable | FlagUser}
	userRO := PTE{PN: 1, Flags: FlagPresent | FlagUser}
	kernRW := PTE{PN: 1, Flags: FlagPresent | FlagWritable}
	nx := PTE{PN: 1, Flags: FlagPresent | FlagUser | FlagNX}

	cases := []struct {
		name   string
		pte    PTE
		access AccessType
		user   bool
		fault  bool
		reason FaultReason
	}{
		{"user read rw", userRW, AccessRead, true, false, 0},
		{"user write rw", userRW, AccessWrite, true, false, 0},
		{"user write ro", userRO, AccessWrite, true, true, FaultProtection},
		{"user read kernel page", kernRW, AccessRead, true, true, FaultProtection},
		{"kernel write kernel page", kernRW, AccessWrite, false, false, 0},
		{"exec nx", nx, AccessExec, true, true, FaultProtection},
		{"read nx", nx, AccessRead, true, false, 0},
		{"not present", PTE{}, AccessRead, true, true, FaultNotPresent},
	}
	for _, c := range cases {
		f := CheckPerms(7, c.pte, c.access, c.user)
		if (f != nil) != c.fault {
			t.Errorf("%s: fault=%v, want %v", c.name, f != nil, c.fault)
			continue
		}
		if f != nil && f.Reason != c.reason {
			t.Errorf("%s: reason=%v, want %v", c.name, f.Reason, c.reason)
		}
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{VPN: 0x10, Access: AccessWrite, Reason: FaultProtection, User: true}
	if f.Error() == "" {
		t.Fatal("empty fault message")
	}
}

func TestPageTableMapLookupUnmap(t *testing.T) {
	pt := NewPageTable()
	pte := PTE{PN: 42, Flags: FlagPresent | FlagUser}
	pt.Map(123, pte)
	if got := pt.Lookup(123); got != pte {
		t.Fatalf("Lookup = %v, want %v", got, pte)
	}
	if pt.Count() != 1 {
		t.Fatalf("Count = %d, want 1", pt.Count())
	}
	pt.Unmap(123)
	if pt.Lookup(123).Present() {
		t.Fatal("entry still present after Unmap")
	}
	if pt.Count() != 0 {
		t.Fatalf("Count = %d after unmap, want 0", pt.Count())
	}
}

func TestPageTableReplaceKeepsCount(t *testing.T) {
	pt := NewPageTable()
	pt.Map(5, PTE{PN: 1, Flags: FlagPresent})
	pt.Map(5, PTE{PN: 2, Flags: FlagPresent | FlagWritable})
	if pt.Count() != 1 {
		t.Fatalf("Count = %d after replace, want 1", pt.Count())
	}
	if pt.Lookup(5).PN != 2 {
		t.Fatal("replace did not take effect")
	}
}

func TestPageTableSparseLookup(t *testing.T) {
	pt := NewPageTable()
	if pt.Lookup(999999).Present() {
		t.Fatal("empty table returned present entry")
	}
	if pt.Lookup(MaxVPN + 10).Present() {
		t.Fatal("out-of-range VPN returned present entry")
	}
}

func TestPageTableMapOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Map beyond MaxVPN did not panic")
		}
	}()
	NewPageTable().Map(MaxVPN+1, PTE{Flags: FlagPresent})
}

func TestPageTableFlagsOps(t *testing.T) {
	pt := NewPageTable()
	pt.Map(8, PTE{PN: 3, Flags: FlagPresent | FlagWritable})
	if !pt.SetFlags(8, FlagDirty) {
		t.Fatal("SetFlags failed on mapped page")
	}
	if !pt.Lookup(8).Flags.Has(FlagDirty) {
		t.Fatal("dirty bit not set")
	}
	if !pt.ClearFlags(8, FlagWritable) {
		t.Fatal("ClearFlags failed")
	}
	if pt.Lookup(8).Flags.Has(FlagWritable) {
		t.Fatal("writable bit not cleared")
	}
	if pt.SetFlags(77, FlagDirty) {
		t.Fatal("SetFlags succeeded on unmapped page")
	}
}

func TestPageTableRangeOrderedAndCancelable(t *testing.T) {
	pt := NewPageTable()
	vpns := []uint64{5000, 3, 1 << 15, 77, 1024}
	for _, v := range vpns {
		pt.Map(v, PTE{PN: v * 2, Flags: FlagPresent})
	}
	got := pt.PresentVPNs()
	if len(got) != len(vpns) {
		t.Fatalf("PresentVPNs len = %d, want %d", len(got), len(vpns))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("not sorted: %v", got)
		}
	}
	n := 0
	pt.Range(func(vpn uint64, pte PTE) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("Range visited %d after cancel, want 2", n)
	}
}

func TestPageTableClear(t *testing.T) {
	pt := NewPageTable()
	for i := uint64(0); i < 100; i++ {
		pt.Map(i*37, PTE{PN: i, Flags: FlagPresent})
	}
	pt.Clear()
	if pt.Count() != 0 || len(pt.PresentVPNs()) != 0 {
		t.Fatal("Clear left entries behind")
	}
}

func TestPageTableCountProperty(t *testing.T) {
	// Property: after an arbitrary map/unmap sequence, Count equals the
	// number of distinct present VPNs.
	f := func(ops []uint16) bool {
		pt := NewPageTable()
		ref := map[uint64]bool{}
		for i, op := range ops {
			vpn := uint64(op % 512)
			if i%3 == 2 {
				pt.Unmap(vpn)
				delete(ref, vpn)
			} else {
				pt.Map(vpn, PTE{PN: uint64(i), Flags: FlagPresent})
				ref[vpn] = true
			}
		}
		return pt.Count() == len(ref)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTLBHitMiss(t *testing.T) {
	w := testWorld()
	tlb := NewTLB(w.Boot(), 16)
	if _, ok := tlb.Lookup(1, 100); ok {
		t.Fatal("hit on empty TLB")
	}
	pte := PTE{PN: 7, Flags: FlagPresent | FlagUser}
	tlb.Insert(1, 100, pte)
	got, ok := tlb.Lookup(1, 100)
	if !ok || got != pte {
		t.Fatalf("Lookup = %v,%v", got, ok)
	}
	if w.Stats.Get(sim.CtrTLBHit) != 1 || w.Stats.Get(sim.CtrTLBMiss) != 1 {
		t.Fatalf("hit/miss counters = %d/%d, want 1/1",
			w.Stats.Get(sim.CtrTLBHit), w.Stats.Get(sim.CtrTLBMiss))
	}
}

func TestTLBContextTagging(t *testing.T) {
	w := testWorld()
	tlb := NewTLB(w.Boot(), 16)
	tlb.Insert(1, 100, PTE{PN: 7, Flags: FlagPresent})
	if _, ok := tlb.Lookup(2, 100); ok {
		t.Fatal("context 2 saw context 1's translation")
	}
}

func TestTLBInvalidatePageAllContexts(t *testing.T) {
	w := testWorld()
	tlb := NewTLB(w.Boot(), 16)
	tlb.Insert(1, 100, PTE{PN: 7, Flags: FlagPresent})
	tlb.Insert(2, 100, PTE{PN: 9, Flags: FlagPresent})
	tlb.Insert(1, 101, PTE{PN: 8, Flags: FlagPresent})
	tlb.InvalidatePage(w.Boot(), 100)
	if _, ok := tlb.Lookup(1, 100); ok {
		t.Fatal("ctx1 vpn100 survived invalidation")
	}
	if _, ok := tlb.Lookup(2, 100); ok {
		t.Fatal("ctx2 vpn100 survived invalidation")
	}
	if _, ok := tlb.Lookup(1, 101); !ok {
		t.Fatal("unrelated entry was invalidated")
	}
}

func TestTLBInvalidateContext(t *testing.T) {
	w := testWorld()
	tlb := NewTLB(w.Boot(), 16)
	tlb.Insert(1, 100, PTE{PN: 7, Flags: FlagPresent})
	tlb.Insert(2, 200, PTE{PN: 9, Flags: FlagPresent})
	tlb.InvalidateContext(w.Boot(), 1)
	if _, ok := tlb.Lookup(1, 100); ok {
		t.Fatal("ctx1 entry survived context invalidation")
	}
	if _, ok := tlb.Lookup(2, 200); !ok {
		t.Fatal("ctx2 entry wrongly invalidated")
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	w := testWorld()
	tlb := NewTLB(w.Boot(), 4)
	for vpn := uint64(0); vpn < 20; vpn++ {
		tlb.Insert(1, vpn, PTE{PN: vpn, Flags: FlagPresent})
	}
	if tlb.Len() > 4 {
		t.Fatalf("TLB grew to %d entries, cap 4", tlb.Len())
	}
}

func TestTLBFlush(t *testing.T) {
	w := testWorld()
	tlb := NewTLB(w.Boot(), 8)
	tlb.Insert(1, 1, PTE{PN: 1, Flags: FlagPresent})
	tlb.Flush()
	if tlb.Len() != 0 {
		t.Fatal("Flush left entries")
	}
	if w.Stats.Get(sim.CtrTLBFlush) != 1 {
		t.Fatal("flush counter not incremented")
	}
}

func TestTLBReinsertAfterEvictionStaleOrder(t *testing.T) {
	// Exercises the stale-order-slot path: invalidate entries, then force
	// evictions; the TLB must stay within capacity and not panic.
	w := testWorld()
	tlb := NewTLB(w.Boot(), 4)
	for vpn := uint64(0); vpn < 4; vpn++ {
		tlb.Insert(1, vpn, PTE{PN: vpn, Flags: FlagPresent})
	}
	tlb.InvalidatePage(w.Boot(), 0)
	tlb.InvalidatePage(w.Boot(), 1)
	for vpn := uint64(10); vpn < 30; vpn++ {
		tlb.Insert(1, vpn, PTE{PN: vpn, Flags: FlagPresent})
	}
	if tlb.Len() > 4 {
		t.Fatalf("TLB exceeded capacity: %d", tlb.Len())
	}
}

// BenchmarkTLBLookupHit measures a TLB hit on a full 256-entry TLB, cycling
// through 16 resident translations.
func BenchmarkTLBLookupHit(b *testing.B) {
	tlb := NewTLB(testWorld().Boot(), 256)
	for vpn := uint64(0); vpn < 256; vpn++ {
		tlb.Insert(1, vpn, PTE{PN: vpn, Flags: FlagPresent})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tlb.Lookup(1, uint64(i%16)); !ok {
			b.Fatal("miss on a resident translation")
		}
	}
}
