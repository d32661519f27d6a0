package vmm

import (
	"fmt"
	"slices"
	"testing"

	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/sim"
)

// sweepShadowRefs is the brute-force form of the reverse map: a scan of
// every shadow table of every live address space, returning the present
// entries per machine page, each list sorted by compareShadowRefs.
func sweepShadowRefs(v *VMM) map[uint64][]shadowRef {
	out := make(map[uint64][]shadowRef)
	for _, as := range v.spaces {
		for cpu := range as.shadows {
			for view := View(0); view < numViews; view++ {
				as.shadows[cpu][view].Range(func(vpn uint64, pte mmu.PTE) bool {
					out[pte.PN] = append(out[pte.PN], shadowRef{as: as, vpn: vpn, cpu: int32(cpu), view: view})
					return true
				})
			}
		}
	}
	for _, refs := range out {
		slices.SortFunc(refs, compareShadowRefs)
	}
	return out
}

// checkRmap fails t unless v.rmap lists exactly the present shadow entries
// of every live address space, and the ref total equals the summed Count()
// of those shadow tables (which bounds the reverse map by the shadows).
func checkRmap(t *testing.T, v *VMM, step string) {
	t.Helper()
	want := sweepShadowRefs(v)
	refs, entries := 0, 0
	for _, as := range v.spaces {
		for cpu := range as.shadows {
			for view := range as.shadows[cpu] {
				entries += as.shadows[cpu][view].Count()
			}
		}
	}
	for mpn, list := range v.rmap {
		refs += len(list)
		got := append([]shadowRef(nil), list...)
		slices.SortFunc(got, compareShadowRefs)
		w := want[uint64(mpn)]
		if len(got) != len(w) {
			t.Fatalf("%s: rmap[%d] has %d refs, shadow tables hold %d", step, mpn, len(got), len(w))
		}
		for i := range got {
			if got[i] != w[i] {
				t.Fatalf("%s: rmap[%d][%d] = {as %d vpn %d cpu %d %v}, shadow tables say {as %d vpn %d cpu %d %v}",
					step, mpn, i, got[i].as.id, got[i].vpn, got[i].cpu, got[i].view,
					w[i].as.id, w[i].vpn, w[i].cpu, w[i].view)
			}
		}
	}
	if refs != entries {
		t.Fatalf("%s: rmap holds %d refs, shadow tables hold %d entries", step, refs, entries)
	}
}

// TestReverseMapModel drives a seeded mix of every operation that changes a
// shadow table — fills in both views on every vCPU, guest invalidations,
// range drops, cloak transitions in both directions, an adversarial remap
// without invalidation, frame recycling, domain destroy, quarantine and
// address-space teardown — and checks the reverse map against a brute-force
// scan of every shadow table after each step.
func TestReverseMapModel(t *testing.T) {
	for _, ncpu := range []int{1, 4} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("vcpus%d/seed%d", ncpu, seed), func(t *testing.T) {
				runReverseMapModel(t, ncpu, seed)
			})
		}
	}
}

func runReverseMapModel(t *testing.T, ncpu int, seed uint64) {
	r := newSMPRig(t, ncpu, Options{})
	v := r.v
	rng := sim.NewRNG(seed)

	// Space 0: domain A with cloaked VPNs [20, 28). Space 1: domain B with
	// cloaked VPNs [20, 24). Space 2: uncloaked. All map VPNs [16, 32) onto
	// a shared pool of guest pages [1, 24), so frames are shared across
	// spaces and views.
	spaces := []*AddressSpace{r.as, v.CreateAddressSpace(mmu.NewPageTable()), v.CreateAddressSpace(mmu.NewPageTable())}
	r.cloakSetup(20, 8)
	connA := r.conn
	connB, err := v.HCCreateDomain(spaces[1])
	if err != nil {
		t.Fatal(err)
	}
	resB, err := connB.AllocResource()
	if err != nil {
		t.Fatal(err)
	}
	if err := connB.RegisterRegion(Region{BaseVPN: 20, Pages: 4, Resource: resB, Cloaked: true}); err != nil {
		t.Fatal(err)
	}
	const loVPN, nVPN, nGPPN = 16, 16, 23
	mapRandom := func(as *AddressSpace, vpn uint64, writable bool) {
		flags := mmu.FlagPresent | mmu.FlagUser
		if writable {
			flags |= mmu.FlagWritable
		}
		as.guestPT.Map(vpn, mmu.PTE{PN: uint64(1 + rng.Intn(nGPPN)), Flags: flags})
	}
	for _, as := range spaces {
		for vpn := uint64(loVPN); vpn < loVPN+nVPN; vpn++ {
			mapRandom(as, vpn, rng.Intn(3) != 0)
		}
	}
	checkRmap(t, v, "setup")

	destroyedB, quarantinedA := false, false
	buf := make([]byte, 8)
	for step := 0; step < 600; step++ {
		cpu := rng.Intn(ncpu)
		as := spaces[rng.Intn(len(spaces))]
		vpn := uint64(loVPN + rng.Intn(nVPN))
		op := rng.Intn(100)
		var what string
		r.on(cpu, func() {
			switch {
			case op < 40:
				what = "fill"
				view, user := ViewApp, true
				if rng.Intn(2) == 0 {
					view, user = ViewSystem, false
				}
				access := mmu.AccessRead
				if rng.Intn(2) == 0 {
					access = mmu.AccessWrite
				}
				_, _ = v.Translate(as, view, vpn, access, user)
			case op < 52:
				what = "guest remap + invalidate"
				if rng.Intn(4) == 0 {
					as.guestPT.Unmap(vpn)
				} else {
					mapRandom(as, vpn, rng.Intn(2) == 0)
				}
				v.InvalidateGuestMapping(as, vpn)
			case op < 60:
				// The adversarial kernel points a PTE at another frame, or
				// only makes it writable, and skips the notification; a
				// write through a read-only shadow entry then refills it.
				what = "remap without invalidation"
				if rng.Intn(2) == 0 {
					as.guestPT.SetFlags(vpn, mmu.FlagWritable)
				} else {
					mapRandom(as, vpn, true)
				}
				_, _ = v.Translate(as, ViewApp, vpn, mmu.AccessWrite, true)
			case op < 66:
				what = "range drop"
				v.dropShadowsRange(as, vpn, uint64(1+rng.Intn(6)))
			case op < 76:
				what = "kernel read (encrypt)"
				_ = v.ReadVirt(as, ViewSystem, mach.Addr(vpn*mach.PageSize), buf, false)
			case op < 86:
				what = "app read (decrypt)"
				_ = v.ReadVirt(as, ViewApp, mach.Addr(vpn*mach.PageSize), buf, true)
			case op < 90:
				what = "phys read"
				_ = v.PhysRead(mach.GPPN(1+rng.Intn(nGPPN)), 0, buf)
			case op < 94:
				what = "frame recycled"
				v.NotifyFrameRecycled(mach.GPPN(1 + rng.Intn(nGPPN)))
			case op < 96 && !destroyedB && step > 200:
				what = "domain destroy"
				destroyedB = true
				connB.Destroy()
			case op < 98 && !quarantinedA && step > 300:
				what = "quarantine"
				quarantinedA = true
				v.quarantine(connA.Domain(), Event{Kind: EventIntegrityViolation, Domain: connA.Domain()})
			default:
				what = "destroy address space"
				i := rng.Intn(len(spaces))
				v.DestroyAddressSpace(spaces[i])
				fresh := v.CreateAddressSpace(mmu.NewPageTable())
				for vpn := uint64(loVPN); vpn < loVPN+nVPN; vpn++ {
					mapRandom(fresh, vpn, rng.Intn(3) != 0)
				}
				spaces[i] = fresh
			}
		})
		checkRmap(t, v, fmt.Sprintf("step %d (%s on cpu%d)", step, what, cpu))
	}
	for _, as := range spaces {
		v.DestroyAddressSpace(as)
	}
	checkRmap(t, v, "teardown")
	for mpn, list := range v.rmap {
		if len(list) != 0 {
			t.Fatalf("teardown left %d refs on frame %d", len(list), mpn)
		}
	}
}

// sweepDropAll is the full-sweep invalidation the reverse map replaced,
// kept as an oracle: scan every shadow table of every space for entries
// mapping gppn's frame, unmapping and charging each one.
func sweepDropAll(v *VMM, gppn mach.GPPN) {
	m, _ := v.machineOf(gppn)
	for _, as := range v.spaces {
		for view := View(0); view < numViews; view++ {
			for cpu := range as.shadows {
				sh := as.shadows[cpu][view]
				var victims []uint64
				sh.Range(func(vpn uint64, pte mmu.PTE) bool {
					if pte.PN == uint64(m) {
						victims = append(victims, vpn)
					}
					return true
				})
				for _, vpn := range victims {
					sh.Unmap(vpn)
					v.cpu().ChargeCount(v.world.Cost.ShadowDrop, sim.CtrShadowDrop)
					v.tlbInvalidatePage(vpn)
				}
			}
		}
	}
	v.rmap[m] = v.rmap[m][:0]
}

// TestDropAllShadowsMatchesSweep: a frame mapped in two spaces, in both
// views and on both vCPUs, costs the same ShadowDrop, TLBEvict and
// TLBShootdown counts — and the same cycles — whether its mappings are
// found through the reverse map or by sweeping every shadow table.
func TestDropAllShadowsMatchesSweep(t *testing.T) {
	build := func() (*testRig, *AddressSpace) {
		r := newSMPRig(t, 2, Options{})
		other := r.v.CreateAddressSpace(mmu.NewPageTable())
		for _, as := range []*AddressSpace{r.as, other} {
			for vpn := uint64(3); vpn < 8; vpn++ {
				r.mapGuest(as, vpn, mach.GPPN(vpn))
			}
			r.mapGuest(as, 9, 5) // a second VPN aliasing the target frame
		}
		for cpu := 0; cpu < 2; cpu++ {
			r.on(cpu, func() {
				for _, as := range []*AddressSpace{r.as, other} {
					for vpn := uint64(3); vpn < 10; vpn++ {
						if _, err := r.v.Translate(as, ViewApp, vpn, mmu.AccessRead, true); err != nil && vpn != 8 {
							t.Fatal(err)
						}
						if _, err := r.v.Translate(as, ViewSystem, vpn, mmu.AccessRead, false); err != nil && vpn != 8 {
							t.Fatal(err)
						}
					}
				}
			})
		}
		return r, other
	}
	counters := []sim.Counter{sim.CtrShadowDrop, sim.CtrTLBEvict, sim.CtrTLBShootdown}
	measure := func(drop func(*VMM, mach.GPPN)) ([]uint64, sim.Cycles) {
		r, _ := build()
		mpn, _ := r.v.machineOf(5)
		if n := len(r.v.rmap[mpn]); n != 16 {
			t.Fatalf("target frame has %d mappings, want 16 (2 spaces x 2 VPNs x 2 views x 2 vCPUs)", n)
		}
		before := r.w.Stats.Snapshot()
		start := r.w.Clock.Now()
		drop(r.v, 5)
		delta := r.w.Stats.DeltaSince(before)
		out := make([]uint64, len(counters))
		for i, c := range counters {
			out[i] = delta[c]
		}
		checkRmap(t, r.v, "after drop")
		return out, r.w.Clock.Now() - start
	}
	got, gotCycles := measure((*VMM).dropAllShadowsOfGPPN)
	want, wantCycles := measure(sweepDropAll)
	for i, c := range counters {
		if got[i] != want[i] {
			t.Errorf("%s: reverse map charged %d, sweep %d", c, got[i], want[i])
		}
	}
	if got[0] != 16 || got[2] == 0 {
		t.Errorf("counts %v: want 16 shadow drops and at least one shootdown", got)
	}
	if gotCycles != wantCycles {
		t.Errorf("cycles: reverse map %d, sweep %d", gotCycles, wantCycles)
	}
}
