package mach

import (
	"errors"
	"testing"

	"overshadow/internal/fault"
	"overshadow/internal/sim"
)

// diskPlan arms one disk-read fault site with the given rate.
func diskPlan(r fault.Rate) fault.Plan {
	var p fault.Plan
	p.Rates[fault.SiteDiskRead] = r
	return p
}

// TestRehomeRefusedMidFaultSchedule: carrying a disk away from a live world
// whose injector still owes disk faults is refused typed — the declared
// (seed, plan) failure history must complete on the machine that declared
// it. The device must remain attached and usable after the refusal.
func TestRehomeRefusedMidFaultSchedule(t *testing.T) {
	w1 := testWorld()
	w1.Fault = fault.NewInjector(3, diskPlan(fault.Rate{FailPerMille: 100, Max: 4}))
	d := NewDisk(w1, 8)
	buf := make([]byte, BlockSize)
	if err := d.Write(0, buf); err != nil {
		t.Fatal(err)
	}

	w2 := testWorld()
	err := d.Rehome(w2)
	if !errors.Is(err, ErrRehomeMidFault) {
		t.Fatalf("rehome mid-schedule: err=%v, want ErrRehomeMidFault", err)
	}
	// Still attached to w1: a same-world rehome is always a no-op success,
	// and I/O still works against the original machine.
	if err := d.Rehome(w1); err != nil {
		t.Fatalf("same-world rehome after refusal: %v", err)
	}
	if err := d.Read(0, buf); err != nil {
		// An injected read failure is fine — it must come from w1's
		// schedule, which is the point of the refusal.
		t.Logf("read after refused rehome: %v (w1's own schedule)", err)
	}
}

// TestRehomeAllowedWhenScheduleComplete: once the site's Max injections are
// consumed the schedule is no longer active and the move is allowed.
func TestRehomeAllowedWhenScheduleComplete(t *testing.T) {
	w1 := testWorld()
	w1.Fault = fault.NewInjector(5, diskPlan(fault.Rate{FailPerMille: 1000, Max: 1}))
	d := NewDisk(w1, 8)
	buf := make([]byte, BlockSize)
	if err := d.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(0, buf); err == nil {
		t.Fatal("certain fault did not fire")
	}
	if err := d.Rehome(testWorld()); err != nil {
		t.Fatalf("rehome after schedule completed: %v", err)
	}
}

// TestRehomeAllowedFromCrashedWorld: a crashed world issues no further I/O,
// so its schedule is complete by definition — this is the Reboot path.
func TestRehomeAllowedFromCrashedWorld(t *testing.T) {
	w1 := testWorld()
	w1.Fault = fault.NewInjector(7, diskPlan(fault.Rate{FailPerMille: 100, Max: 4}))
	d := NewDisk(w1, 8)

	w1.Clock.SetCrashAt(1)
	func() {
		defer func() {
			if r := recover(); r != nil && !sim.IsCrash(r) {
				panic(r)
			}
		}()
		w1.CPU().ChargeAdd(10, sim.CtrCompute, 0)
	}()
	if !w1.Clock.Crashed() {
		t.Fatal("crash deadline did not fire")
	}
	if err := d.Rehome(testWorld()); err != nil {
		t.Fatalf("rehome from crashed world: %v", err)
	}
}

// TestRehomeAllowedOtherwise: no injector, a fault plan with no disk sites,
// and a same-world move are all allowed even mid-run.
func TestRehomeAllowedOtherwise(t *testing.T) {
	w1 := testWorld()
	d := NewDisk(w1, 8)
	if err := d.Rehome(testWorld()); err != nil {
		t.Fatalf("rehome with no injector: %v", err)
	}

	w2 := testWorld()
	var plan fault.Plan
	plan.Rates[fault.SiteHypercall] = fault.Rate{FailPerMille: 500, Max: 10}
	w2.Fault = fault.NewInjector(9, plan)
	d2 := NewDisk(w2, 8)
	if err := d2.Rehome(testWorld()); err != nil {
		t.Fatalf("rehome with only non-disk sites armed: %v", err)
	}

	w3 := testWorld()
	w3.Fault = fault.NewInjector(11, diskPlan(fault.Rate{FailPerMille: 100, Max: 4}))
	d3 := NewDisk(w3, 8)
	if err := d3.Rehome(w3); err != nil {
		t.Fatalf("same-world rehome mid-schedule: %v", err)
	}
}

// TestReadRetryBounded: a device whose every read fails is read exactly
// ReadAttempts times before ReadRetry gives up with ErrIO, each attempt
// charged; under a fault-free plan it reads once.
func TestReadRetryBounded(t *testing.T) {
	w := testWorld()
	w.Fault = fault.NewInjector(1, diskPlan(fault.Rate{FailPerMille: 1000}))
	d := NewDisk(w, 4)
	buf := make([]byte, BlockSize)
	if err := d.ReadRetry(2, buf); !errors.Is(err, ErrIO) {
		t.Fatalf("ReadRetry on a failing device: err=%v, want ErrIO", err)
	}
	if got := w.Stats.Get(sim.CtrDiskRead); got != ReadAttempts {
		t.Fatalf("failing device read %d times, want %d", got, ReadAttempts)
	}

	w = testWorld()
	w.Fault = fault.NewInjector(1, fault.Plan{})
	d = NewDisk(w, 4)
	if err := d.ReadRetry(2, buf); err != nil {
		t.Fatalf("ReadRetry on a healthy device: %v", err)
	}
	if got := w.Stats.Get(sim.CtrDiskRead); got != 1 {
		t.Fatalf("healthy device read %d times, want 1", got)
	}
}
