package sim

import "testing"

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
		if got, ok := CounterByName(name); !ok || got != c {
			t.Errorf("CounterByName(%q) = %d, %v; want %d, true", name, got, ok, c)
		}
	}
	if _, ok := CounterByName("no.such.counter"); ok {
		t.Error("CounterByName resolved an unknown name")
	}
}

func TestStatsDeltaSinceSkipsZeroCounters(t *testing.T) {
	s := NewStats()
	s.Add(CtrSyscall, 3)
	snap := s.Snapshot()
	s.Reset()
	s.Inc(CtrMemAccess)
	d := s.DeltaSince(snap)
	if len(d) != 1 || d[CtrMemAccess] != 1 {
		t.Fatalf("delta = %v, want only mem.access:1", d)
	}
}

// TestChargePathAllocFree pins the charge primitives allocation-free with
// metrics, tracing and profiling off: they run on every simulated memory
// access.
func TestChargePathAllocFree(t *testing.T) {
	c := NewWorld(DefaultCostModel(), 1).Boot()
	for name, charge := range map[string]func(){
		"Charge":      func() { c.Charge(1) },
		"ChargeCount": func() { c.ChargeCount(1, CtrTLBHit) },
		"ChargeAdd":   func() { c.ChargeAdd(1, CtrMemAccess, 1) },
	} {
		if allocs := testing.AllocsPerRun(1000, charge); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// BenchmarkChargeAdd measures the sim charge path alone: clock advance,
// per-vCPU credit and the flat counter, on a bare World.
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
