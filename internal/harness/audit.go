package harness

import (
	"bytes"

	"overshadow/internal/core"
	"overshadow/internal/mach"
	"overshadow/internal/persist"
	"overshadow/internal/vmm"
)

// The audit kit: the queries the security sweeps (E8, E13, E14, E16, E17)
// read their verdict columns from, and the machine config and bystander
// programs they share. Every query reads simulated state only, so a verdict
// is byte-identical for any -shards value at a fixed seed.

// leaked reports whether marker appears in any raw block of sys's swap or
// FS disk.
func leaked(sys *core.System, marker []byte) bool {
	return scanDisk(sys.Kernel.SwapDisk(), marker) || scanDisk(sys.Kernel.FS().Disk(), marker)
}

// scanDisk sweeps every block for pat. It reads through PokeRaw (the
// aliasing view) strictly read-only: Peek now copies each block, and a
// whole-device sweep would churn one allocation per block for nothing.
func scanDisk(d *mach.Disk, pat []byte) bool {
	for b := uint64(0); b < d.NumBlocks(); b++ {
		if bytes.Contains(d.PokeRaw(b), pat) {
			return true
		}
	}
	return false
}

// countEvents counts the VMM audit-log entries of any of the given kinds.
func countEvents(sys *core.System, kinds ...vmm.EventKind) int {
	n := 0
	for _, ev := range sys.SecurityEvents() {
		for _, k := range kinds {
			if ev.Kind == k {
				n++
				break
			}
		}
	}
	return n
}

// scenarioSeed mixes a scenario name into the seed so same-shaped scenarios
// do not share a schedule.
func scenarioSeed(seed uint64, name string) uint64 {
	for _, c := range []byte(name) {
		seed = seed*1099511628211 + uint64(c)
	}
	return seed
}

// journaledConfig is the machine the crash and migration sweeps boot: small
// RAM so the victim swaps hard, and a metadata journal checkpointing often
// enough that mid-checkpoint crash points exist even at quick scale (and
// that migration has the sealed epoch anchor and entry table it needs).
func journaledConfig(o Options) core.Config {
	return core.Config{
		MemoryPages: 96,
		Seed:        o.seed(),
		VCPUs:       o.VCPUs,
		Persist:     &persist.Options{CheckpointEvery: 16},
	}
}

// bystander is the cloaked sibling that shares a machine with an attacked
// victim: it stamps its pages, then stays alive for steps rounds re-checking
// them, so it must survive whatever happens next door. ok is set only if
// every check passed.
func bystander(stamp uint64, pages, steps int, ok *bool) core.Program {
	return func(e core.Env) {
		base := must1(e.Sbrk(int64(pages)))
		for i := 0; i < pages; i++ {
			e.Store64(base+core.Addr(i*core.PageSize), stamp+uint64(i))
		}
		for s := 0; s < steps; s++ {
			e.Compute(4000)
			for i := 0; i < pages; i++ {
				if e.Load64(base+core.Addr(i*core.PageSize)) != stamp+uint64(i) {
					return // corrupted: leave ok false
				}
			}
			e.Yield()
		}
		*ok = true
		e.Exit(0)
	}
}

// worker is the native process that keeps the rest of the machine busy.
func worker(steps int) core.Program {
	return func(e core.Env) {
		for s := 0; s < steps; s++ {
			e.Compute(3000)
			e.Yield()
		}
		e.Exit(0)
	}
}
