package vmm

import (
	"testing"

	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/sim"
)

func benchRig(b *testing.B) *testRig {
	b.Helper()
	r := newRig(&testing.T{}, Options{})
	return r
}

func BenchmarkTranslateTLBHit(b *testing.B) {
	r := benchRig(b)
	r.mapGuest(r.as, 5, 3)
	if _, err := r.v.Translate(r.as, ViewApp, 5, mmu.AccessRead, true); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.v.Translate(r.as, ViewApp, 5, mmu.AccessRead, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranslateShadowMiss(b *testing.B) {
	r := benchRig(b)
	for vpn := uint64(0); vpn < 32; vpn++ {
		r.mapGuest(r.as, vpn, mach.GPPN(vpn%60)+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := uint64(i % 32)
		r.v.shadowUnmap(r.as, 0, ViewApp, vpn)
		r.v.tlbInvalidatePage(vpn)
		if _, err := r.v.Translate(r.as, ViewApp, vpn, mmu.AccessRead, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCloakTransitionRoundTrip(b *testing.B) {
	// One full encrypt-on-kernel-access + decrypt-on-app-access cycle.
	r := benchRig(b)
	r.cloakSetup(20, 4)
	r.mapGuest(r.as, 20, 7)
	if err := r.appWrite(20, []byte("bench")); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.v.ReadVirt(r.as, ViewSystem, 20*mach.PageSize, buf, false); err != nil {
			b.Fatal(err)
		}
		if err := r.v.ReadVirt(r.as, ViewApp, 20*mach.PageSize, buf, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSecureControlTransfer(b *testing.B) {
	r := benchRig(b)
	c, _ := r.v.HCCreateDomain(r.as)
	th := r.v.CreateThread(c.Domain())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.EnterKernel(TrapSyscall)
		if err := th.ExitKernel(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadVirtBulk(b *testing.B) {
	r := benchRig(b)
	for vpn := uint64(0); vpn < 16; vpn++ {
		r.mapGuest(r.as, vpn, mach.GPPN(vpn)+1)
	}
	buf := make([]byte, 16*mach.PageSize)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.v.ReadVirt(r.as, ViewApp, 0, buf, true); err != nil {
			b.Fatal(err)
		}
	}
}

// dropTarget is the guest page whose mappings BenchmarkDropAllShadowsOfGPPN
// drops: VPN 100 of the first two spaces maps it.
const dropTarget mach.GPPN = 5

// newDropRig boots a 2-vCPU VMM with six address spaces, each mapping 48
// VPNs onto shared frames, faulted into both views on both vCPUs, plus
// dropTarget at VPN 100 of the first two spaces. It returns the VMM and a
// function that reinstalls dropTarget's 8 shadow entries (2 spaces x 2
// views x 2 vCPUs) without touching the TLBs.
func newDropRig(tb testing.TB) (*VMM, func()) {
	tb.Helper()
	w := sim.NewWorldN(sim.DefaultCostModel(), 7, 2)
	v, err := New(w, Config{GuestPages: 64})
	if err != nil {
		tb.Fatal(err)
	}
	spaces := make([]*AddressSpace, 6)
	for k := range spaces {
		as := v.CreateAddressSpace(mmu.NewPageTable())
		for vpn := uint64(0); vpn < 48; vpn++ {
			as.guestPT.Map(vpn, mmu.PTE{PN: 8 + (vpn+uint64(k)*7)%48,
				Flags: mmu.FlagPresent | mmu.FlagWritable | mmu.FlagUser})
		}
		if k < 2 {
			as.guestPT.Map(100, mmu.PTE{PN: uint64(dropTarget),
				Flags: mmu.FlagPresent | mmu.FlagWritable | mmu.FlagUser})
		}
		spaces[k] = as
	}
	for _, c := range w.VCPUs() {
		w.Activate(c)
		for _, as := range spaces {
			as.guestPT.Range(func(vpn uint64, _ mmu.PTE) bool {
				for _, view := range []View{ViewApp, ViewSystem} {
					if _, err := v.Translate(as, view, vpn, mmu.AccessRead, view == ViewApp); err != nil {
						tb.Fatal(err)
					}
				}
				return true
			})
		}
	}
	w.Activate(w.Boot())
	mpn, _ := v.machineOf(dropTarget)
	victims := append([]shadowRef(nil), v.rmap[mpn]...)
	if len(victims) != 8 {
		tb.Fatalf("dropTarget has %d shadow mappings, want 8", len(victims))
	}
	pte := mmu.PTE{PN: uint64(mpn), Flags: mmu.FlagPresent | mmu.FlagWritable}
	refill := func() {
		for _, r := range victims {
			v.shadowMap(r.as, int(r.cpu), r.view, r.vpn, pte)
		}
	}
	return v, refill
}

// BenchmarkDropAllShadowsOfGPPN measures one cloak-transition invalidation
// of a frame with 8 shadow mappings on a VMM holding 6 populated spaces.
func BenchmarkDropAllShadowsOfGPPN(b *testing.B) {
	v, refill := newDropRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refill()
		v.dropAllShadowsOfGPPN(dropTarget)
	}
}

// TestDropAllShadowsOfGPPNAllocationFree pins the invalidation path at zero
// allocations once the reverse map's lists have reached their size.
func TestDropAllShadowsOfGPPNAllocationFree(t *testing.T) {
	v, refill := newDropRig(t)
	n := testing.AllocsPerRun(100, func() {
		refill()
		v.dropAllShadowsOfGPPN(dropTarget)
	})
	if n != 0 {
		t.Fatalf("refill + dropAllShadowsOfGPPN allocates %.1f times, want 0", n)
	}
}
