package sim

import (
	"reflect"
	"testing"

	"overshadow/internal/fault"
	"overshadow/internal/obs"
)

// exportedCounterNames pins every counter's exported name. The names reach
// the goldens, metrics exports and profiles, so a rename here is a change
// to every artifact and must be deliberate.
var exportedCounterNames = []struct {
	ctr  Counter
	name string
}{
	{CtrMemAccess, "mem.access"},
	{CtrTLBHit, "tlb.hit"},
	{CtrTLBMiss, "tlb.miss"},
	{CtrTLBFlush, "tlb.flush"},
	{CtrShadowFill, "vmm.shadow.fill"},
	{CtrShadowDrop, "vmm.shadow.drop"},
	{CtrShadowSwitch, "vmm.shadow.switch"},
	{CtrHiddenFault, "vmm.fault.hidden"},
	{CtrGuestFault, "vmm.fault.guest"},
	{CtrCloakFault, "vmm.fault.cloak"},
	{CtrPageEncrypt, "cloak.encrypt"},
	{CtrPageDecrypt, "cloak.decrypt"},
	{CtrHashCompute, "cloak.hash"},
	{CtrHashVerifyOK, "cloak.verify.ok"},
	{CtrHashVerifyFail, "cloak.verify.fail"},
	{CtrMetaCacheHit, "cloak.metacache.hit"},
	{CtrMetaCacheMiss, "cloak.metacache.miss"},
	{CtrCTCSave, "vmm.ctc.save"},
	{CtrCTCRestore, "vmm.ctc.restore"},
	{CtrHypercall, "vmm.hypercall"},
	{CtrWorldSwitch, "vmm.worldswitch"},
	{CtrSyscall, "os.syscall"},
	{CtrContextSwitch, "os.contextswitch"},
	{CtrPageFaultDemand, "os.fault.demand"},
	{CtrPageFaultCOW, "os.fault.cow"},
	{CtrPageOut, "os.swap.out"},
	{CtrPageIn, "os.swap.in"},
	{CtrDiskRead, "disk.read"},
	{CtrDiskWrite, "disk.write"},
	{CtrFork, "os.fork"},
	{CtrExec, "os.exec"},
	{CtrSignalDeliver, "os.signal.deliver"},
	{CtrShimMarshalBytes, "shim.marshal.bytes"},
	{CtrShimSyscall, "shim.syscall"},
	{CtrAttackSnoop, "attack.snoop"},
	{CtrAttackTamper, "attack.tamper"},
	{CtrAttackDetected, "attack.detected"},
	{CtrFaultInjected, "fault.injected"},
	{CtrShimRetry, "shim.retry"},
	{CtrQuarantine, "vmm.quarantine"},
	{CtrTLBShootdown, "tlb.shootdown"},
	{CtrMigration, "os.migrate"},
	{CtrJournalAppend, "persist.append"},
	{CtrJournalCheckpoint, "persist.checkpoint"},
	{CtrJournalWriteErr, "persist.write.err"},
	{CtrJournalWedged, "persist.wedged"},
	{CtrReplayAccepted, "persist.replay.accepted"},
	{CtrReplayRejected, "persist.replay.rejected"},
	{CtrRecoverPage, "persist.recover.page"},
	{CtrIagoRejected, "shim.iago.rejected"},
	{CtrQuotaDenied, "vmm.quota.denied"},
	{CtrJournalDomainWedged, "persist.wedged.domain"},
	{CtrIntrospectScan, "vmi.scan"},
	{CtrIntrospectDiverge, "vmi.diverge"},
	{CtrMigrateCkptPage, "migrate.ckpt.page"},
	{CtrMigrateXfer, "migrate.xfer.frame"},
	{CtrMigrateRetry, "migrate.retry"},
	{CtrCompute, "cpu.compute"},
	{CtrIdle, "cpu.idle"},
	{CtrTrap, "cpu.trap"},
	{CtrTLBEvict, "tlb.evict"},
	{CtrPageZero, "mm.pagezero"},
	{CtrPageCopy, "mm.pagecopy"},
	{CtrOther, "cycles.other"},
}

func TestCounterNamesPinned(t *testing.T) {
	if len(exportedCounterNames) != 64 || int(numCounters) != len(exportedCounterNames) {
		t.Fatalf("%d counters, %d pinned names: every counter needs a pinned name", numCounters, len(exportedCounterNames))
	}
	covered := make(map[Counter]bool)
	for _, tc := range exportedCounterNames {
		if got := tc.ctr.String(); got != tc.name {
			t.Errorf("counter %d renders %q, want %q", tc.ctr, got, tc.name)
		}
		covered[tc.ctr] = true
	}
	if len(covered) != int(numCounters) {
		t.Fatalf("pinned list covers %d distinct counters, want %d", len(covered), numCounters)
	}
}

func TestCounterNamesUniqueAndNonEmpty(t *testing.T) {
	seen := make(map[string]Counter)
	for c := Counter(0); c < numCounters; c++ {
		name := c.String()
		if name == "" {
			t.Errorf("counter %d has no name", c)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("counters %d and %d share the name %q", prev, c, name)
		}
		seen[name] = c
	}
}

func TestStatsDeltaSinceSkipsZeroCounters(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	s := w.Stats
	w.Boot().ChargeAdd(0, CtrSyscall, 3)
	snap := s.Snapshot()
	w.Boot().ChargeCount(0, CtrMemAccess)
	d := s.DeltaSince(snap)
	if len(d) != 1 || d[CtrMemAccess] != 1 {
		t.Fatalf("delta = %v, want only mem.access:1", d)
	}
}

// TestChargePathAllocFree pins the charge primitives allocation-free with
// tracing and profiling off: they run on every simulated memory access. A
// dispatch between tasks whose rows are already interned allocates nothing
// either.
func TestChargePathAllocFree(t *testing.T) {
	c := NewWorld(DefaultCostModel(), 1).Boot()
	c.SetTask(1, 1, "a", 0, false)
	c.SetTask(2, 2, "b", 3, true)
	next := 0
	for name, charge := range map[string]func(){
		"Charge":      func() { c.Charge(1) },
		"ChargeCount": func() { c.ChargeCount(1, CtrTLBHit) },
		"ChargeAdd":   func() { c.ChargeAdd(1, CtrMemAccess, 1) },
		"SetTask": func() {
			if next ^= 1; next == 0 {
				c.SetTask(1, 1, "a", 0, false)
			} else {
				c.SetTask(2, 2, "b", 3, true)
			}
		},
	} {
		if allocs := testing.AllocsPerRun(1000, charge); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestZeroChargeCreatesCell: a charge of zero cycles and zero events still
// creates its exported cell (the shim charges an empty marshal this way).
func TestZeroChargeCreatesCell(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	w.Boot().ChargeAdd(0, CtrShimMarshalBytes, 0)
	snap := w.Stats.Attributed().Snapshot()
	want := []obs.MetricPoint{{Name: CtrShimMarshalBytes.String()}}
	if !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot = %+v, want %+v", snap, want)
	}
	if w.Stats.Get(CtrShimMarshalBytes) != 0 {
		t.Fatal("zero-event charge created a flat count")
	}
}

// TestInjectedFaultsStayUnattributed: an injected fault counts in the flat
// views perfbench reads, but it is not a charge, so the attributed export
// never shows it.
func TestInjectedFaultsStayUnattributed(t *testing.T) {
	w := NewWorld(DefaultCostModel(), 1)
	var plan fault.Plan
	plan.Rates[fault.SiteDiskRead] = fault.Rate{FailPerMille: 1000}
	w.Fault = fault.NewInjector(1, plan)
	for i := 0; i < 3; i++ {
		if _, ok := w.Boot().InjectAt(fault.SiteDiskRead); !ok {
			t.Fatal("certain fault did not fire")
		}
	}
	w.Boot().Charge(1)
	for _, p := range w.Stats.Attributed().Snapshot() {
		if p.Name == CtrFaultInjected.String() {
			t.Fatalf("attributed export shows %+v", p)
		}
	}
	w.SetPhase("p") // the flat count survives the fold into a new phase
	if got := w.Stats.Get(CtrFaultInjected); got != 3 {
		t.Fatalf("Get(fault.injected) = %d, want 3", got)
	}
	if got := w.Stats.Snapshot()[CtrFaultInjected]; got != 3 {
		t.Fatalf("Snapshot[fault.injected] = %d, want 3", got)
	}
}

// TestPhaseExcludesEarlierCharges: charges made before SetPhase (a harness
// world boots before the observer labels it) stay out of the phase's
// attributed store, but the flat views still count them.
func TestPhaseExcludesEarlierCharges(t *testing.T) {
	w := NewWorldN(DefaultCostModel(), 1, 2)
	w.VCPUs()[1].SetTask(5, 5, "boot", 0, false)
	w.VCPUs()[1].ChargeCount(100, CtrSyscall)
	w.Boot().ChargeAdd(0, CtrShimMarshalBytes, 0)
	w.SetPhase("E0/run")
	w.VCPUs()[1].ChargeCount(10, CtrSyscall)
	m := w.Stats.Attributed()
	want := []obs.MetricPoint{{
		Attr: obs.Attr{Phase: "E0/run", PID: 5, TID: 5, Task: "boot"},
		Name: CtrSyscall.String(), Cycles: 10, Events: 1,
	}}
	if snap := m.Snapshot(); !reflect.DeepEqual(snap, want) {
		t.Fatalf("snapshot = %+v, want %+v", snap, want)
	}
	if m.TotalCycles() != 10 {
		t.Fatalf("TotalCycles = %d, want 10", m.TotalCycles())
	}
	if got := w.Stats.Get(CtrSyscall); got != 2 {
		t.Fatalf("Get(os.syscall) = %d, want 2", got)
	}
}

// BenchmarkChargeAdd measures the sim charge path alone: clock advance,
// per-vCPU credit and the attributed cell, on a bare World.
func BenchmarkChargeAdd(b *testing.B) {
	c := NewWorld(DefaultCostModel(), 1).Boot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ChargeAdd(1, CtrMemAccess, 1)
	}
}

// BenchmarkChargeCount is BenchmarkChargeAdd through ChargeCount.
func BenchmarkChargeCount(b *testing.B) {
	c := NewWorld(DefaultCostModel(), 1).Boot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ChargeCount(1, CtrTLBHit)
	}
}
