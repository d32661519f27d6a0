package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Counter names every event class the machine records. Counters are a dense
// enum: Stats indexes a fixed array with them, and every export renders a
// counter by its entry in the one names table (see String). The base type is
// deliberately wider than a byte, so go vet's stringintconv check rejects a
// string(ctr) conversion, which would yield a one-rune string, not the name.
type Counter uint16

// Counters recorded across the stack.
const (
	CtrMemAccess Counter = iota
	CtrTLBHit
	CtrTLBMiss
	CtrTLBFlush
	CtrShadowFill
	CtrShadowDrop
	CtrShadowSwitch
	CtrHiddenFault
	CtrGuestFault
	CtrCloakFault
	CtrPageEncrypt
	CtrPageDecrypt
	CtrHashCompute
	CtrHashVerifyOK
	CtrHashVerifyFail
	CtrMetaCacheHit
	CtrMetaCacheMiss
	CtrCTCSave
	CtrCTCRestore
	CtrHypercall
	CtrWorldSwitch
	CtrSyscall
	CtrContextSwitch
	CtrPageFaultDemand
	CtrPageFaultCOW
	CtrPageOut
	CtrPageIn
	CtrDiskRead
	CtrDiskWrite
	CtrFork
	CtrExec
	CtrSignalDeliver
	CtrShimMarshalBytes
	CtrShimSyscall
	CtrAttackSnoop
	CtrAttackTamper
	CtrAttackDetected
	CtrFaultInjected
	CtrShimRetry
	CtrQuarantine

	// SMP counters (zero on a single-vCPU machine, so VCPUs=1 runs keep
	// their exports byte-identical to the historical single-CPU machine).
	CtrTLBShootdown
	CtrMigration

	// Persistence counters (zero unless a metadata journal is attached, so
	// journal-free runs keep their exports byte-identical).
	CtrJournalAppend
	CtrJournalCheckpoint
	CtrJournalWriteErr
	CtrJournalWedged
	CtrReplayAccepted
	CtrReplayRejected
	CtrRecoverPage

	// Adversary-hardening counters (zero unless an adversary plan, a
	// resource quota, or the introspection monitor is active, so default
	// runs keep their exports byte-identical).
	CtrIagoRejected
	CtrQuotaDenied
	CtrJournalDomainWedged
	CtrIntrospectScan
	CtrIntrospectDiverge

	// Live-migration counters (zero unless a domain is checkpointed and
	// transferred, so non-migrating runs keep their exports byte-identical).
	CtrMigrateCkptPage
	CtrMigrateXfer
	CtrMigrateRetry

	// Cycle-attribution counters: these name cycle sinks that previously
	// charged the clock anonymously, so attributed profiles can decompose
	// every simulated cycle. CtrOther is the catch-all that keeps the
	// per-component breakdown summing to the clock total.
	CtrCompute
	CtrIdle
	CtrTrap
	CtrTLBEvict
	CtrPageZero
	CtrPageCopy
	CtrOther

	numCounters
)

// counterNames is the names table: the exported name of every counter.
var counterNames = [numCounters]string{
	CtrMemAccess:           "mem.access",
	CtrTLBHit:              "tlb.hit",
	CtrTLBMiss:             "tlb.miss",
	CtrTLBFlush:            "tlb.flush",
	CtrShadowFill:          "vmm.shadow.fill",
	CtrShadowDrop:          "vmm.shadow.drop",
	CtrShadowSwitch:        "vmm.shadow.switch",
	CtrHiddenFault:         "vmm.fault.hidden",
	CtrGuestFault:          "vmm.fault.guest",
	CtrCloakFault:          "vmm.fault.cloak",
	CtrPageEncrypt:         "cloak.encrypt",
	CtrPageDecrypt:         "cloak.decrypt",
	CtrHashCompute:         "cloak.hash",
	CtrHashVerifyOK:        "cloak.verify.ok",
	CtrHashVerifyFail:      "cloak.verify.fail",
	CtrMetaCacheHit:        "cloak.metacache.hit",
	CtrMetaCacheMiss:       "cloak.metacache.miss",
	CtrCTCSave:             "vmm.ctc.save",
	CtrCTCRestore:          "vmm.ctc.restore",
	CtrHypercall:           "vmm.hypercall",
	CtrWorldSwitch:         "vmm.worldswitch",
	CtrSyscall:             "os.syscall",
	CtrContextSwitch:       "os.contextswitch",
	CtrPageFaultDemand:     "os.fault.demand",
	CtrPageFaultCOW:        "os.fault.cow",
	CtrPageOut:             "os.swap.out",
	CtrPageIn:              "os.swap.in",
	CtrDiskRead:            "disk.read",
	CtrDiskWrite:           "disk.write",
	CtrFork:                "os.fork",
	CtrExec:                "os.exec",
	CtrSignalDeliver:       "os.signal.deliver",
	CtrShimMarshalBytes:    "shim.marshal.bytes",
	CtrShimSyscall:         "shim.syscall",
	CtrAttackSnoop:         "attack.snoop",
	CtrAttackTamper:        "attack.tamper",
	CtrAttackDetected:      "attack.detected",
	CtrFaultInjected:       "fault.injected",
	CtrShimRetry:           "shim.retry",
	CtrQuarantine:          "vmm.quarantine",
	CtrTLBShootdown:        "tlb.shootdown",
	CtrMigration:           "os.migrate",
	CtrJournalAppend:       "persist.append",
	CtrJournalCheckpoint:   "persist.checkpoint",
	CtrJournalWriteErr:     "persist.write.err",
	CtrJournalWedged:       "persist.wedged",
	CtrReplayAccepted:      "persist.replay.accepted",
	CtrReplayRejected:      "persist.replay.rejected",
	CtrRecoverPage:         "persist.recover.page",
	CtrIagoRejected:        "shim.iago.rejected",
	CtrQuotaDenied:         "vmm.quota.denied",
	CtrJournalDomainWedged: "persist.wedged.domain",
	CtrIntrospectScan:      "vmi.scan",
	CtrIntrospectDiverge:   "vmi.diverge",
	CtrMigrateCkptPage:     "migrate.ckpt.page",
	CtrMigrateXfer:         "migrate.xfer.frame",
	CtrMigrateRetry:        "migrate.retry",
	CtrCompute:             "cpu.compute",
	CtrIdle:                "cpu.idle",
	CtrTrap:                "cpu.trap",
	CtrTLBEvict:            "tlb.evict",
	CtrPageZero:            "mm.pagezero",
	CtrPageCopy:            "mm.pagecopy",
	CtrOther:               "cycles.other",
}

// String returns the counter's exported name. It is a table lookup, so the
// charge path can hand names to the attributed stores without allocating.
func (c Counter) String() string { return counterNames[c] }

// CounterByName resolves an exported name back to its counter, reporting
// false for a name no counter carries.
func CounterByName(name string) (Counter, bool) {
	for i, n := range counterNames {
		if n == name {
			return Counter(i), true
		}
	}
	return 0, false
}

// Stats is a fixed array of monotonically increasing event counters, one
// slot per Counter. Like all machine state it is touched only by the
// baton-holding goroutine (see the package doc).
type Stats struct {
	counts [numCounters]uint64
}

// NewStats returns an empty counter set.
func NewStats() *Stats { return &Stats{} }

// Inc adds one to counter c.
func (s *Stats) Inc(c Counter) { s.counts[c]++ }

// Add adds n to counter c.
func (s *Stats) Add(c Counter, n uint64) { s.counts[c] += n }

// Get reports the current value of counter c.
func (s *Stats) Get(c Counter) uint64 { return s.counts[c] }

// Snapshot returns the non-zero counters, for before/after deltas.
func (s *Stats) Snapshot() map[Counter]uint64 {
	out := make(map[Counter]uint64)
	for i, v := range s.counts {
		if v != 0 {
			out[Counter(i)] = v
		}
	}
	return out
}

// DeltaSince subtracts an earlier snapshot from the current counters,
// keeping the non-zero differences of the non-zero counters.
func (s *Stats) DeltaSince(prev map[Counter]uint64) map[Counter]uint64 {
	out := make(map[Counter]uint64)
	for i, v := range s.counts {
		if d := v - prev[Counter(i)]; v != 0 && d != 0 {
			out[Counter(i)] = d
		}
	}
	return out
}

// Reset zeroes all counters.
func (s *Stats) Reset() { s.counts = [numCounters]uint64{} }

// String renders the non-zero counters sorted by name.
func (s *Stats) String() string {
	var ctrs []Counter
	for i, v := range s.counts {
		if v != 0 {
			ctrs = append(ctrs, Counter(i))
		}
	}
	sort.Slice(ctrs, func(i, j int) bool { return ctrs[i].String() < ctrs[j].String() })
	var b strings.Builder
	for _, c := range ctrs {
		fmt.Fprintf(&b, "%-24s %12d\n", c, s.counts[c])
	}
	return b.String()
}
