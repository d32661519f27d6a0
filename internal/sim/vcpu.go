package sim

import (
	"overshadow/internal/fault"
	"overshadow/internal/obs"
)

// VCPU is the execution context of one simulated CPU: the handle every
// charge, trace, fault, and dispatch site goes through. All execution-scoped
// state — the attribution context, the per-CPU cycle counter, the per-CPU
// random stream — lives here; the World keeps only the machine-global clock,
// cost model, counters, and export surfaces.
//
// Exactly one vCPU executes at any simulated instant (the guest scheduler's
// baton enforces it), so the global clock only ever advances on behalf of the
// running vCPU and the per-vCPU cycle counters sum exactly to the clock. The
// same baton serializes every access to the mutable fields: only its holder
// touches them, and the handoff is a channel operation the race detector
// sees.
type VCPU struct {
	id int
	w  *World

	// RNG is this vCPU's deterministic stream. The boot vCPU aliases the
	// World stream (so single-vCPU machines draw the historical sequence);
	// vCPU i > 0 draws a stream derived from the world seed and i.
	RNG *RNG

	// attr identifies the guest task this vCPU is running; charges and spans
	// are attributed to it. The guest scheduler and the shim keep it current
	// (see SetTask).
	attr obs.Attr
	// row is attr's cells in the world's counter store, re-interned whenever
	// attr changes; every charge adds to it.
	row []obs.Cell
	// cycles is the simulated time this vCPU has charged to the clock.
	cycles Cycles
}

// ID returns the vCPU index (0 is the boot vCPU).
func (c *VCPU) ID() int { return c.id }

// World returns the machine this vCPU belongs to.
func (c *VCPU) World() *World { return c.w }

// Now is shorthand for the global clock reading.
func (c *VCPU) Now() Cycles { return c.w.Clock.Now() }

// Cycles reports the simulated time this vCPU has charged so far. Summed
// over all vCPUs it equals the clock exactly, including across a crash.
func (c *VCPU) Cycles() Cycles { return c.cycles }

// chargeClock advances the global clock by n on this vCPU's behalf, crediting
// the applied cycles to the per-vCPU counter. When an armed crash deadline
// fires the credit still lands (time was clamped to the deadline) before the
// Crash panic unwinds — so the sum-to-clock invariant holds in crashed worlds
// too, exactly like the historical single-CPU charge path, which also stopped
// before any counter attribution.
func (c *VCPU) chargeClock(n Cycles) {
	applied, at, crashed := c.w.Clock.advance(n)
	c.cycles += applied
	if crashed {
		panic(Crash{At: at})
	}
}

// Charge advances the clock by n cycles. Sites with a meaningful counter
// should prefer ChargeCount/ChargeAdd; anything left here lands in the
// catch-all bucket so attributed components still sum to the clock total.
func (c *VCPU) Charge(n Cycles) { c.ChargeAdd(n, CtrOther, 0) }

// ChargeCount advances the clock and increments the matching counter; the
// two almost always travel together.
func (c *VCPU) ChargeCount(n Cycles, ctr Counter) { c.ChargeAdd(n, ctr, 1) }

// ChargeAdd advances the clock by n cycles attributed to counter ctr, adding
// events to its count (events may be zero when the count is already
// maintained elsewhere and only the cycles need attribution). The charge
// lands in this vCPU's current row of the counter store, and marks the cell
// charged even when n and events are both zero.
func (c *VCPU) ChargeAdd(n Cycles, ctr Counter, events uint64) {
	c.chargeClock(n)
	cell := &c.row[ctr]
	cell.Cycles += uint64(n)
	cell.Events += events
	cell.Charged = true
	if w := c.w; w.prof != nil {
		w.profLeaf(ctr.String(), uint64(n))
	}
}

// InjectAt consumes one fault opportunity at site. When a fault fires it is
// counted and traced (an instant span named "<site>/<kind>") so every export
// can correlate injected faults with their downstream effects.
func (c *VCPU) InjectAt(site fault.Site) (fault.Kind, bool) {
	w := c.w
	if w.Fault == nil {
		return fault.None, false
	}
	kind, ok := w.Fault.At(site)
	if !ok {
		return fault.None, false
	}
	// Counted in the flat views only: an injected fault is not a charge, so
	// it has no cycles to attribute.
	w.Stats.flat[CtrFaultInjected]++
	// The span name is only built when a tracer is listening: Emit is a
	// no-op without one, and formatting per fired fault would otherwise be
	// the injection path's only allocation.
	if w.TraceEnabled() {
		c.Emit(obs.KindFault, site.String()+"/"+kind.String(), uint64(site))
	}
	return kind, true
}

// SetTask records which guest task this vCPU is now running; subsequent
// charges and spans are attributed to it. The guest scheduler calls this on
// every dispatch; pid/tid zero resets to the machine context.
func (c *VCPU) SetTask(pid, tid int, name string, domain uint32, cloaked bool) {
	w := c.w
	if w.prof != nil {
		w.profDispatch(tid)
	}
	c.setAttr(obs.Attr{
		PID: pid, TID: tid, Task: name,
		Domain: domain, Cloaked: cloaked,
		Phase: c.attr.Phase,
	})
}

// SetTaskDomain updates the cloaking domain of the current task (the shim
// learns the domain only after its first hypercall, mid-run).
func (c *VCPU) SetTaskDomain(domain uint32) {
	a := c.attr
	a.Domain = domain
	c.setAttr(a)
}

// setPhase relabels this vCPU's attribution phase; the World applies it to
// every vCPU (see World.SetPhase).
func (c *VCPU) setPhase(phase string) {
	a := c.attr
	a.Phase = phase
	c.setAttr(a)
}

// setAttr switches this vCPU's attribution to a and re-interns its row.
func (c *VCPU) setAttr(a obs.Attr) {
	c.attr = a
	c.row = c.w.Stats.store.Row(a)
}

// Attr returns this vCPU's current attribution context.
func (c *VCPU) Attr() obs.Attr { return c.attr }
