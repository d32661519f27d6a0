package harness

import (
	"bytes"
	"encoding/binary"

	"overshadow/internal/core"
	"overshadow/internal/sim"
)

// E14: the crash sweep. A probe job first runs a swap-heavy cloaked workload
// to clean completion with the metadata journal attached, recording the total
// run length and the journal's append/checkpoint timestamps. From those it
// derives deterministic whole-machine crash points — mid-first-append,
// mid-append, mid-checkpoint, even fractions of the run, just before
// shutdown, and after the quiesce checkpoint — and runs the same workload
// once per point with Config.CrashAt armed. Each crashed world is rebooted
// through core.Reboot and the recovery is audited:
//
//   - secrecy: the surviving disk never holds the workload's plaintext
//     marker, whatever instant the power died;
//   - integrity: every page the reboot reports Recovered reproduces the
//     marker and a stamp the workload actually wrote; every other page is a
//     typed unavailability with no data attached;
//   - freshness: replay refused zero rollback records (an honest crash must
//     never look like a rollback attack).
//
// Everything derives from simulated state only, so rows are byte-identical
// for any -shards value at a fixed seed.

// e14secret is the plaintext marker the victim plants in every cloaked page.
var e14secret = []byte("E14-CRASH-SECRET-fedcba9876543210")

// e14Register installs the swap-heavy victim: stamp every page with the
// marker plus its index, then churn the whole set so page-outs (and the
// journal records locating them) keep flowing until the crash.
func e14Register(sys *core.System, pages, rounds int) {
	sys.Register("victim", func(e core.Env) {
		base := must1(e.Alloc(pages))
		for i := 0; i < pages; i++ {
			va := base + core.Addr(i*core.PageSize)
			e.WriteMem(va, e14secret)
			e.Store64(va+64, uint64(i))
		}
		for round := 0; round < rounds; round++ {
			for i := 0; i < pages; i++ {
				va := base + core.Addr(i*core.PageSize)
				if e.Load64(va+64) != uint64(i) {
					return // silent corruption: never acceptable
				}
			}
		}
		e.Exit(0)
	})
}

// e14Probe is what the clean run teaches us about the timeline.
type e14Probe struct {
	boot    sim.Cycles // construction cost; marks at or before it are boot-time
	total   sim.Cycles // clean run length including the quiesce checkpoint
	appends []sim.Cycles
	ckpts   []sim.Cycles
}

// crashPoint names one armed deadline.
type crashPoint struct {
	name string
	at   sim.Cycles
}

// e14Points derives the sweep's crash points from the probe. The +1 on mark
// deadlines lands the crash on the first charge after the journal started
// the operation — mid-append means the record was staged but its block never
// became durable; mid-checkpoint means some snapshot blocks hit the disk but
// the committing superblock did not.
func e14Points(p e14Probe) []crashPoint {
	var pts []crashPoint
	if len(p.appends) > 0 {
		pts = append(pts,
			crashPoint{"mid-first-append", p.appends[0] + 1},
			crashPoint{"mid-append", p.appends[len(p.appends)/2] + 1},
		)
	}
	for _, c := range p.ckpts {
		// Skip the boot-time format checkpoint: the deadline arms at Run.
		if c > p.boot {
			pts = append(pts, crashPoint{"mid-checkpoint", c + 1})
			break
		}
	}
	T := p.total
	return append(pts,
		crashPoint{"quarter", T / 4},
		crashPoint{"half", T / 2},
		crashPoint{"three-quarter", 3 * T / 4},
		crashPoint{"pre-shutdown", T - T/16},
		crashPoint{"post-quiesce", T + 1}, // never fires: clean shutdown, then reboot
	)
}

// crashOutcome is one crash point's audited result.
type crashOutcome struct {
	name        string
	crashed     bool
	recovered   int
	unavailable int
	rejected    int
	replayKcyc  float64
	secrecy     bool
	integrity   bool
	freshness   bool
}

// RunE14 sweeps the crash points; the probe and every crashed world run as
// pool jobs.
func RunE14(opts Options) *Table {
	pages := opts.scale(160, 120)
	rounds := opts.scale(4, 3)

	probe := submit(opts, func(o Options) e14Probe {
		sys := core.NewSystem(journaledConfig(o))
		boot := sys.Now()
		o.observe(sys.World, "crash/probe")
		e14Register(sys, pages, rounds)
		mustSpawn(sys, "victim")
		sys.Run()
		appends, ckpts := sys.Journal.Marks()
		return e14Probe{boot: boot, total: sys.Now(), appends: appends, ckpts: ckpts}
	}).wait()

	outcomes := sweep(opts, e14Points(probe), func(o Options, pt crashPoint) crashOutcome {
		return runCrashPoint(o, pt, pages, rounds)
	})
	t := &Table{
		ID:      "E14",
		Title:   "Crash sweep: sealed-journal recovery across deterministic crash points",
		Columns: []string{"crashed", "recovered", "unavailable", "rejected recs", "replay kcyc", "secrecy", "integrity", "freshness"},
	}
	for _, o := range outcomes {
		t.AddRow(o.name, b2f(o.crashed), float64(o.recovered), float64(o.unavailable),
			float64(o.rejected), o.replayKcyc, b2f(o.secrecy), b2f(o.integrity), b2f(o.freshness))
	}
	t.Note("each row is one power cut at a derived cycle; 'recovered' pages decrypted and verified against sealed metadata")
	t.Note("secrecy/integrity/freshness must be 1 everywhere: no plaintext on the surviving disk, no unverified recovery, no rollback accepted")
	t.Note("post-quiesce never actually crashes (deadline past clean shutdown); its empty table is cryptographic erasure at domain exit")
	t.Note("'rejected recs' counts typed replay refusals; stale-epoch leftovers in log blocks from before the last checkpoint are refused by design")
	return t
}

// runCrashPoint crashes one world at the given deadline and audits the
// reboot.
func runCrashPoint(o Options, pt crashPoint, pages, rounds int) crashOutcome {
	out := crashOutcome{name: pt.name}
	cfg := journaledConfig(o)
	cfg.CrashAt = pt.at
	sys := core.NewSystem(cfg)
	o.observe(sys.World, "crash/"+pt.name)
	e14Register(sys, pages, rounds)
	mustSpawn(sys, "victim")
	sys.Run()
	out.crashed = sys.Crashed()

	sys2, rep, err := core.Reboot(sys)
	if err != nil {
		panic(err) // deterministic config with a journal: cannot fail
	}
	// Attached post-replay: the recovery already happened, so this world
	// contributes its cycles to the experiment tally (replay time is real
	// simulated work) without per-phase metric attribution.
	o.observe(sys2.World, "recover/"+pt.name)

	out.recovered = rep.Recovered
	out.unavailable = rep.Unavailable
	out.rejected = len(rep.Replay.Rejections)
	out.replayKcyc = float64(rep.ReplayCycles) / 1e3
	out.freshness = rep.RollbackRejections() == 0
	out.secrecy = !scanDisk(sys.Kernel.SwapDisk(), e14secret[:8])
	out.integrity = true
	for _, p := range rep.Pages {
		if p.State == core.Recovered {
			stamp := binary.LittleEndian.Uint64(p.Data[64:72])
			if !bytes.HasPrefix(p.Data, e14secret) || stamp >= uint64(pages) {
				out.integrity = false
			}
		} else if p.Data != nil {
			out.integrity = false
		}
	}
	return out
}
