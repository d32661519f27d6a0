package mmu

import (
	"testing"

	"overshadow/internal/sim"
)

// TestTLBAgainstReferenceModel drives random operation sequences against
// the TLB and a trivially correct reference (a map with no capacity
// limit), checking the TLB's soundness invariant: every hit must return
// exactly what the reference holds (misses are always allowed — capacity
// eviction — but wrong translations never are).
func TestTLBAgainstReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		w := sim.NewWorld(sim.DefaultCostModel(), seed)
		tlb := NewTLB(w.Boot(), 32)
		rng := sim.NewRNG(seed * 7777)
		type key struct {
			ctx uint32
			vpn uint64
		}
		ref := map[key]PTE{}

		for step := 0; step < 5000; step++ {
			ctx := uint32(rng.Intn(4))
			vpn := uint64(rng.Intn(64))
			k := key{ctx, vpn}
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // insert
				pte := PTE{PN: rng.Uint64() % 1024, Flags: FlagPresent | Flags(rng.Intn(4))<<1}
				tlb.Insert(ctx, vpn, pte)
				ref[k] = pte
			case 4, 5, 6, 7: // lookup
				got, hit := tlb.Lookup(ctx, vpn)
				if !hit {
					continue // miss is always sound
				}
				want, ok := ref[k]
				if !ok {
					t.Fatalf("seed %d step %d: hit on never-inserted (ctx %d vpn %d)", seed, step, ctx, vpn)
				}
				if got != want {
					t.Fatalf("seed %d step %d: stale translation %v, want %v", seed, step, got, want)
				}
			case 8: // invalidate page everywhere
				tlb.InvalidatePage(w.Boot(), vpn)
				for kk := range ref {
					if kk.vpn == vpn {
						delete(ref, kk)
					}
				}
			case 9: // invalidate a whole context
				tlb.InvalidateContext(w.Boot(), ctx)
				for kk := range ref {
					if kk.ctx == ctx {
						delete(ref, kk)
					}
				}
			}
			if tlb.Len() > 32 {
				t.Fatalf("seed %d step %d: TLB over capacity: %d", seed, step, tlb.Len())
			}
		}
	}
}

// mapTLB is the map-only TLB without a front array: the reference whose
// every observable the TLB must reproduce, stale order slots included.
type mapTLB struct {
	cpu     *sim.VCPU
	cap     int
	entries map[uint64]tlbEntry
	order   []uint64
}

func (t *mapTLB) lookup(ctx uint32, vpn uint64) (PTE, bool) {
	e, ok := t.entries[tlbKey(ctx, vpn)]
	if !ok {
		t.cpu.ChargeAdd(0, sim.CtrTLBMiss, 1)
		return PTE{}, false
	}
	t.cpu.ChargeCount(t.cpu.World().Cost.TLBHit, sim.CtrTLBHit)
	return PTE{PN: e.pn, Flags: e.flags}, true
}

func (t *mapTLB) insert(ctx uint32, vpn uint64, pte PTE) {
	key := tlbKey(ctx, vpn)
	if _, exists := t.entries[key]; !exists && len(t.entries) >= t.cap {
		t.evictOne()
	}
	if _, exists := t.entries[key]; !exists {
		t.order = append(t.order, key)
	}
	t.entries[key] = tlbEntry{vpn: vpn, ctx: ctx, pn: pte.PN, flags: pte.Flags}
}

func (t *mapTLB) evictOne() {
	for len(t.order) > 0 {
		i := t.cpu.RNG.Intn(len(t.order))
		key := t.order[i]
		t.order[i] = t.order[len(t.order)-1]
		t.order = t.order[:len(t.order)-1]
		if _, ok := t.entries[key]; ok {
			delete(t.entries, key)
			return
		}
	}
}

// invalidate drops every entry drop selects, charging on per entry.
func (t *mapTLB) invalidate(on *sim.VCPU, drop func(tlbEntry) bool) int {
	dropped := 0
	for key, e := range t.entries {
		if drop(e) {
			delete(t.entries, key)
			on.ChargeAdd(on.World().Cost.TLBEvict, sim.CtrTLBEvict, 1)
			dropped++
		}
	}
	return dropped
}

func (t *mapTLB) flush() {
	t.entries = make(map[uint64]tlbEntry, t.cap)
	t.order = t.order[:0]
	t.cpu.ChargeCount(t.cpu.World().Cost.TLBFlush, sim.CtrTLBFlush)
}

// TestTLBMatchesMapOnlyReference drives the TLB and the map-only reference,
// each on its own identically seeded world, through the same random
// operation sequences, with a hot key set so the front array both hits and
// collides. After every operation the two must agree on the result, the
// entry count, the clock, every counter, and the next eviction draw: the
// front may save host time, never change what the simulation observes.
func TestTLBMatchesMapOnlyReference(t *testing.T) {
	for _, capacity := range []int{32, 256} {
		for seed := uint64(1); seed <= 4; seed++ {
			wa := sim.NewWorld(sim.DefaultCostModel(), seed)
			wb := sim.NewWorld(sim.DefaultCostModel(), seed)
			tlb := NewTLB(wa.Boot(), capacity)
			ref := &mapTLB{cpu: wb.Boot(), cap: capacity, entries: map[uint64]tlbEntry{}}
			rng := sim.NewRNG(seed*31 + uint64(capacity))
			for step := 0; step < 6000; step++ {
				ctx := uint32(rng.Intn(4))
				vpn := uint64(rng.Intn(24))
				if rng.Intn(3) == 0 {
					vpn = uint64(rng.Intn(1024))
				}
				var op string
				switch r := rng.Intn(100); {
				case r < 35:
					op = "insert"
					pte := PTE{PN: rng.Uint64() % 4096, Flags: FlagPresent | Flags(rng.Intn(8))<<1}
					tlb.Insert(ctx, vpn, pte)
					ref.insert(ctx, vpn, pte)
				case r < 85:
					op = "lookup"
					got, hit := tlb.Lookup(ctx, vpn)
					want, wantHit := ref.lookup(ctx, vpn)
					if hit != wantHit || got != want {
						t.Fatalf("cap %d seed %d step %d: Lookup(%d, %d) = %v, %v; reference %v, %v",
							capacity, seed, step, ctx, vpn, got, hit, want, wantHit)
					}
				case r < 92:
					op = "invalidate page"
					n, want := tlb.InvalidatePage(wa.Boot(), vpn),
						ref.invalidate(wb.Boot(), func(e tlbEntry) bool { return e.vpn == vpn })
					if n != want {
						t.Fatalf("cap %d seed %d step %d: InvalidatePage dropped %d, reference %d", capacity, seed, step, n, want)
					}
				case r < 96:
					op = "invalidate range"
					pages := uint64(1 + rng.Intn(16))
					n, want := tlb.InvalidateRange(wa.Boot(), vpn, pages),
						ref.invalidate(wb.Boot(), func(e tlbEntry) bool { return e.vpn >= vpn && e.vpn < vpn+pages })
					if n != want {
						t.Fatalf("cap %d seed %d step %d: InvalidateRange dropped %d, reference %d", capacity, seed, step, n, want)
					}
				case r < 99:
					op = "invalidate context"
					n, want := tlb.InvalidateContext(wa.Boot(), ctx),
						ref.invalidate(wb.Boot(), func(e tlbEntry) bool { return e.ctx == ctx })
					if n != want {
						t.Fatalf("cap %d seed %d step %d: InvalidateContext dropped %d, reference %d", capacity, seed, step, n, want)
					}
				default:
					op = "flush"
					tlb.Flush()
					ref.flush()
				}
				if tlb.Len() != len(ref.entries) {
					t.Fatalf("cap %d seed %d step %d (%s): Len %d, reference %d", capacity, seed, step, op, tlb.Len(), len(ref.entries))
				}
				if a, b := wa.Now(), wb.Now(); a != b {
					t.Fatalf("cap %d seed %d step %d (%s): clock %d, reference %d", capacity, seed, step, op, a, b)
				}
				if a, b := wa.Stats.String(), wb.Stats.String(); a != b {
					t.Fatalf("cap %d seed %d step %d (%s): counters\n%s\nreference\n%s", capacity, seed, step, op, a, b)
				}
				if a, b := wa.Boot().RNG.Uint64(), wb.Boot().RNG.Uint64(); a != b {
					t.Fatalf("cap %d seed %d step %d (%s): next eviction draw %d, reference %d", capacity, seed, step, op, a, b)
				}
			}
		}
	}
}
