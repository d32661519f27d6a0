package vmm

import (
	"cmp"
	"slices"

	"overshadow/internal/mach"
	"overshadow/internal/mmu"
	"overshadow/internal/sim"
)

// shadowRef names one present shadow entry: vpn in vCPU cpu's shadow of as
// for view.
type shadowRef struct {
	as   *AddressSpace
	vpn  uint64
	cpu  int32
	view View
}

// compareShadowRefs orders refs by (ASID, view, vCPU, VPN), the order in
// which dropAllShadowsOfGPPN visits a frame's victims.
func compareShadowRefs(a, b shadowRef) int {
	return cmp.Or(cmp.Compare(a.as.id, b.as.id), cmp.Compare(a.view, b.view),
		cmp.Compare(a.cpu, b.cpu), cmp.Compare(a.vpn, b.vpn))
}

// The reverse map. Invariant: v.rmap[mpn] lists exactly the present shadow
// entries (any space, vCPU and view) whose PTE maps machine page mpn, each
// once. Shadow tables change only through shadowMap, shadowUnmap,
// dropAllShadowsOfGPPN and DestroyAddressSpace, and each of them keeps the
// list in step, so the total number of refs always equals the sum of the
// shadow tables' Count().

// rmapLink records ref as a mapping of mpn.
func (v *VMM) rmapLink(mpn uint64, ref shadowRef) {
	v.rmap[mpn] = append(v.rmap[mpn], ref)
}

// rmapUnlink forgets ref as a mapping of mpn. The vacated tail slot is
// zeroed so the list never pins a destroyed address space.
func (v *VMM) rmapUnlink(mpn uint64, ref shadowRef) {
	refs := v.rmap[mpn]
	for i := range refs {
		if refs[i] == ref {
			last := len(refs) - 1
			refs[i] = refs[last]
			refs[last] = shadowRef{}
			v.rmap[mpn] = refs[:last]
			return
		}
	}
}

// shadowMap installs pte for vpn in vCPU cpu's shadow of as for view. A fill
// that replaces a present entry for a different frame (the guest kernel
// remapped the PTE without notifying the VMM) moves the reverse-map ref.
func (v *VMM) shadowMap(as *AddressSpace, cpu int, view View, vpn uint64, pte mmu.PTE) {
	sh := as.shadows[cpu][view]
	old := sh.Lookup(vpn)
	sh.Map(vpn, pte)
	if old.Present() && old.PN == pte.PN {
		return
	}
	ref := shadowRef{as: as, vpn: vpn, cpu: int32(cpu), view: view}
	if old.Present() {
		v.rmapUnlink(old.PN, ref)
	}
	v.rmapLink(pte.PN, ref)
}

// shadowUnmap removes vpn from vCPU cpu's shadow of as for view and reports
// whether an entry was present.
func (v *VMM) shadowUnmap(as *AddressSpace, cpu int, view View, vpn uint64) bool {
	sh := as.shadows[cpu][view]
	old := sh.Lookup(vpn)
	if !old.Present() {
		return false
	}
	sh.Unmap(vpn)
	v.rmapUnlink(old.PN, shadowRef{as: as, vpn: vpn, cpu: int32(cpu), view: view})
	return true
}

// dropAllShadowsOfGPPN removes every shadow mapping (any space, any vCPU,
// any view) that points at gppn. Needed when a page changes cloak state:
// stale mappings in other views/spaces would bypass the state machine. The
// reverse map names the victims directly; the charges — a ShadowDrop per
// victim and the TLB invalidation of its VPN — are exactly those of a sweep
// of every shadow table.
func (v *VMM) dropAllShadowsOfGPPN(gppn mach.GPPN) {
	mpn, ok := v.machineOf(gppn)
	if !ok {
		return
	}
	refs := v.rmap[mpn]
	slices.SortFunc(refs, compareShadowRefs)
	c := v.cpu()
	for i, r := range refs {
		r.as.shadows[r.cpu][r.view].Unmap(r.vpn)
		c.ChargeCount(v.world.Cost.ShadowDrop, sim.CtrShadowDrop)
		if !hasVPN(refs[:i], r.vpn) {
			v.tlbInvalidatePage(r.vpn)
		}
	}
	clear(refs)
	v.rmap[mpn] = refs[:0]
}

// hasVPN reports whether any of refs names vpn. dropAllShadowsOfGPPN
// invalidates each VPN once: nothing refills a TLB inside the loop, so a
// repeat invalidation of the same VPN would find every TLB cold and charge
// nothing.
func hasVPN(refs []shadowRef, vpn uint64) bool {
	for _, r := range refs {
		if r.vpn == vpn {
			return true
		}
	}
	return false
}
