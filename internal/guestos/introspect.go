package guestos

import (
	"cmp"

	"overshadow/internal/ordered"
	"overshadow/internal/vmm"
)

// IntrospectClaims implements vmm.IntrospectSource: the kernel enumerates
// its scheduler and memory-map objects for the hypervisor-side monitor. An
// honest kernel reports exactly its run-queue and VMA state; the adversary
// hook lets a hostile kernel lie (hide tasks, drop regions) — the monitor
// compares whatever comes back against VMM ground truth, so the lie becomes
// a typed divergence, not a blind spot.
func (k *Kernel) IntrospectClaims() *vmm.IntrospectClaims {
	claims := &vmm.IntrospectClaims{}
	for _, pid := range ordered.Keys(k.procs, cmp.Compare[Pid]) {
		p := k.procs[pid]
		if p.state == stateZombie || p.thread == nil {
			continue
		}
		st := "runnable"
		switch p.state {
		case stateRunning:
			st = "running"
		case stateBlocked:
			st = "blocked"
		}
		claims.Tasks = append(claims.Tasks, vmm.TaskClaim{
			Pid: uint64(p.pid), Domain: p.thread.Domain, State: st,
		})
		if !p.isThread && p.as != nil {
			for _, vma := range p.vmas {
				claims.Regions = append(claims.Regions, vmm.RegionClaim{
					AS: p.as.ID(), BaseVPN: vma.Base, Pages: vma.Pages,
				})
			}
		}
	}
	if k.Adversary.OnIntrospect != nil {
		k.Adversary.OnIntrospect(k, claims)
	}
	return claims
}
