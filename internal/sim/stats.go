package sim

import (
	"fmt"
	"sort"
	"strings"

	"overshadow/internal/obs"
)

// Counter names every event class the machine records. Counters are a dense
// enum: every Stats row indexes its cells with them, and every export renders
// a counter by its entry in the one names table (see String). The base type is
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
// charge path can hand names to the profiler without allocating.
func (c Counter) String() string { return counterNames[c] }

// NewMetrics returns an empty attributed store over the counter-names table:
// cell c of every row accumulates counter c.
func NewMetrics() *obs.Metrics { return obs.NewMetrics(counterNames[:]) }

// Stats is the machine's one counter store, always on. Every charge lands in
// a {cycles, events} cell of the row the charging vCPU holds for its
// attribution key (see VCPU.SetTask), so the charge path is an array add.
// The flat views — Get, Snapshot, DeltaSince, String — sum events over the
// rows. Like all machine state it is touched only by the baton-holding
// goroutine (see the package doc).
type Stats struct {
	// store holds the attributed rows of the current phase: what the
	// world's metrics export shows (see Attributed).
	store *obs.Metrics
	// flat holds the events the flat views count but the export leaves out:
	// the rows of earlier phases, folded in by newPhase, and events that no
	// charge carries (injected faults, see VCPU.InjectAt).
	flat [numCounters]uint64
}

// Attributed returns the attributed store of the current phase: every
// charge since the world's last SetPhase (or since boot, if it never set
// one), bucketed by attribution key.
func (s *Stats) Attributed() *obs.Metrics { return s.store }

// newPhase folds the current rows' events into the flat counts and starts
// an empty attributed store, so a phase's export never shows the charges
// made before it (a harness world boots before its phase is set).
func (s *Stats) newPhase() {
	s.flat = s.counts()
	s.store = NewMetrics()
}

// counts sums every counter's events over the flat counts and the rows.
func (s *Stats) counts() [numCounters]uint64 {
	n := s.flat
	for _, r := range s.store.Rows() {
		for c := range n {
			n[c] += r[c].Events
		}
	}
	return n
}

// Get reports the current value of counter c.
func (s *Stats) Get(c Counter) uint64 { return s.counts()[c] }

// Snapshot returns the non-zero counters, for before/after deltas.
func (s *Stats) Snapshot() map[Counter]uint64 {
	out := make(map[Counter]uint64)
	for i, v := range s.counts() {
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
	for i, v := range s.counts() {
		if d := v - prev[Counter(i)]; v != 0 && d != 0 {
			out[Counter(i)] = d
		}
	}
	return out
}

// String renders the non-zero counters sorted by name.
func (s *Stats) String() string {
	counts := s.counts()
	var ctrs []Counter
	for i, v := range counts {
		if v != 0 {
			ctrs = append(ctrs, Counter(i))
		}
	}
	sort.Slice(ctrs, func(i, j int) bool { return ctrs[i].String() < ctrs[j].String() })
	var b strings.Builder
	for _, c := range ctrs {
		fmt.Fprintf(&b, "%-24s %12d\n", c, counts[c])
	}
	return b.String()
}
