package harness

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"overshadow/internal/core"
	"overshadow/internal/fault"
	"overshadow/internal/migrate"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// E16: the migration sweep. A probe job first runs a swap-heavy cloaked
// victim to clean completion, recording the total run length and the
// journal's append timestamps. From those it derives deterministic
// migration points — mid-idle, mid-load, mid-swap-storm — and replays the
// same victim once per point with a migration hook armed at a scheduler
// dispatch boundary. The hook quiesces the domain, ships its sealed
// checkpoint over the fault-injectable transfer channel, and the row lands
// it on a second machine (possibly with a different vCPU count), where a
// resume job re-creates the workload state from the verified pages and
// re-checks it. Adversarial rows run the transfer under fire (lost, torn,
// and silently corrupted frames) and replay a stale checkpoint. Audits:
//
//   - secrecy: the victim's plaintext marker never appears on either
//     machine's disks nor anywhere in the transferred blob;
//   - integrity: every page the restore reports Recovered reproduces the
//     marker and a stamp the victim actually wrote, every other page is a
//     typed unavailability with no data attached, and the resumed workload
//     verifies its state end-to-end;
//   - freshness: no rollback or stale-epoch record is ever accepted, the
//     destination journal commits strictly ahead of the checkpoint, and a
//     replayed stale checkpoint is refused typed and audited.
//
// Everything derives from simulated state only, so rows are byte-identical
// for any -shards value at a fixed seed.

// e16secret is the plaintext marker the victim plants in every cloaked page.
var e16secret = []byte("E16-MIGRATE-SECRET-aabbccddeeff00")

// e16IdleSleep is the victim's idle window between stamping and churn: long
// enough to dominate every inter-append gap, so the idle migration point
// derives robustly from the journal marks.
const e16IdleSleep = 3_000_000

// e16Register installs the victim: stamp every page with the marker plus
// its index, idle through one long sleep, then churn the whole set so
// swap traffic keeps flowing. The done flag distinguishes a victim that
// ran to clean completion — the source-machine liveness verdict after a
// mid-run migration or a transfer abort.
func e16Register(sys *core.System, pages, rounds int, done *bool) {
	sys.Register("victim", func(e core.Env) {
		base := must1(e.Alloc(pages))
		for i := 0; i < pages; i++ {
			va := base + core.Addr(i*core.PageSize)
			e.WriteMem(va, e16secret)
			e.Store64(va+64, uint64(i))
		}
		e.Sleep(e16IdleSleep)
		for round := 0; round < rounds; round++ {
			e.Null()
			for i := 0; i < pages; i++ {
				va := base + core.Addr(i*core.PageSize)
				if e.Load64(va+64) != uint64(i) {
					return // silent corruption: never acceptable
				}
			}
		}
		*done = true
		e.Exit(0)
	})
}

// e16Probe is what the clean run teaches us about the timeline.
type e16Probe struct {
	total   sim.Cycles
	appends []sim.Cycles
}

// e16RunProbe runs the victim to completion on a vcpus-wide machine.
func e16RunProbe(o Options, vcpus, pages, rounds int) e16Probe {
	cfg := journaledConfig(o)
	cfg.VCPUs = vcpus
	sys := core.NewSystem(cfg)
	o.observe(sys.World, fmt.Sprintf("migrate/probe-%dvcpu", vcpus))
	var done bool
	e16Register(sys, pages, rounds, &done)
	mustSpawn(sys, "victim")
	sys.Run()
	appends, _ := sys.Journal.Marks()
	return e16Probe{total: sys.Now(), appends: appends}
}

// e16IdleAt is the midpoint of the largest gap between consecutive journal
// appends — inside the victim's sleep window, when the domain is idle.
func e16IdleAt(p e16Probe) sim.Cycles {
	if len(p.appends) < 2 {
		return p.total / 2
	}
	var best sim.Cycles
	var bi int
	for i := 1; i < len(p.appends); i++ {
		if g := p.appends[i] - p.appends[i-1]; g > best {
			best, bi = g, i
		}
	}
	return p.appends[bi-1] + best/2
}

// e16StormAt lands the migration right after a mid-run journal append —
// inside the swap storm, with page-outs in full flight.
func e16StormAt(p e16Probe) sim.Cycles {
	if len(p.appends) == 0 {
		return p.total / 3
	}
	return p.appends[len(p.appends)/2] + 1
}

// e16StormPlan is the source-machine fault storm: disk, swap, and
// hypercall failures all active while the domain is captured.
func e16StormPlan() *fault.Plan {
	var p fault.Plan
	p.Rates[fault.SiteDiskRead] = fault.Rate{FailPerMille: 100, Max: 2}
	p.Rates[fault.SiteSwapOut] = fault.Rate{FailPerMille: 80, Max: 2}
	p.Rates[fault.SiteHypercall] = fault.Rate{FailPerMille: 150, Max: 3}
	return &p
}

// e16XferPlan actives only the transfer channel's fault site.
func e16XferPlan(r fault.Rate) func() *fault.Plan {
	return func() *fault.Plan {
		var p fault.Plan
		p.Rates[fault.SiteTransfer] = r
		return &p
	}
}

// migPoint names one migration scenario.
type migPoint struct {
	name string
	src  int // source vCPUs (0 = options default)
	dst  int // destination vCPUs (0 = options default)
	at   func(e16Probe) sim.Cycles
	plan func() *fault.Plan // source fault plan (nil = clean machine)
	// replay captures twice and re-presents the older checkpoint after the
	// fresher one landed: the anti-rollback row.
	replay bool
}

// migOutcome is one migration scenario's audited result.
type migOutcome struct {
	name      string
	pages     int
	recovered int
	unavail   int
	rejected  int
	retries   int
	aborted   bool
	srcLive   bool
	secrecy   bool
	integrity bool
	freshness bool
}

// RunE16 sweeps the migration points; the probes and every
// source/destination machine pair run as pool jobs.
func RunE16(opts Options) *Table {
	pages := opts.scale(128, 104)
	rounds := opts.scale(3, 2)

	norm := func(v int) int {
		if v == 0 {
			v = opts.VCPUs
		}
		if v == 0 {
			v = 1
		}
		return v
	}
	// Probe each distinct source width once (the default, plus the 1- and
	// 4-wide machines the cross-width rows boot), in a fixed order.
	widths := []int{1, 4}
	if d := norm(0); d != 1 && d != 4 {
		widths = append(widths, d)
	}
	probes := sweep(opts, widths, func(o Options, v int) e16Probe {
		return e16RunProbe(o, v, pages, rounds)
	})

	half := func(p e16Probe) sim.Cycles { return p.total / 2 }
	points := []migPoint{
		{name: "idle", at: e16IdleAt},
		{name: "mid-load", at: func(p e16Probe) sim.Cycles { return 5 * p.total / 8 }},
		{name: "mid-swap-storm", at: e16StormAt},
		{name: "mid-fault-storm", at: half, plan: e16StormPlan},
		{name: "xfer-fail-retry", at: half, plan: e16XferPlan(fault.Rate{FailPerMille: 1000, Max: 2})},
		{name: "xfer-torn-abort", at: half, plan: e16XferPlan(fault.Rate{TornPerMille: 1000})},
		{name: "xfer-corrupt", at: half, plan: e16XferPlan(fault.Rate{CorruptPerMille: 120})},
		{name: "cross-1to4", src: 1, dst: 4, at: half},
		{name: "cross-4to1", src: 4, dst: 1, at: half},
		{name: "replay-stale", at: half, replay: true},
	}
	outcomes := sweep(opts, points, func(o Options, pt migPoint) migOutcome {
		return runMigration(o, pt, probes[slices.Index(widths, norm(pt.src))], pages, rounds)
	})

	t := &Table{
		ID:      "E16",
		Title:   "Migration sweep: sealed checkpoint-restore across machines, under load and under fire",
		Columns: []string{"pages", "recovered", "unavailable", "rejected recs", "retries", "aborted", "src live", "secrecy", "integrity", "freshness"},
	}
	for _, o := range outcomes {
		t.AddRow(o.name, float64(o.pages), float64(o.recovered), float64(o.unavail),
			float64(o.rejected), float64(o.retries), b2f(o.aborted), b2f(o.srcLive),
			b2f(o.secrecy), b2f(o.integrity), b2f(o.freshness))
	}
	t.Note("each row quiesces the victim at a derived cycle, ships its sealed checkpoint over the faultable channel, and lands it on a second machine; the source keeps running either way")
	t.Note("secrecy: marker absent from both machines' disks and from the transferred blob; integrity: recovered pages verify and the resumed workload re-checks its state; freshness: no rollback/stale record accepted, destination epoch strictly ahead")
	t.Note("xfer-torn-abort must abort typed with the source unharmed; xfer-corrupt may land partially (damage detected per record and per page) or refuse the whole blob typed — both count as contained")
	t.Note("replay-stale re-presents an older checkpoint after a fresher one landed: refused typed, audited as migration-rollback, target domain quarantined")
	return t
}

// runMigration runs one scenario: source machine with the hook armed, the
// transfer, the destination restore, and the resumed workload.
func runMigration(o Options, pt migPoint, probe e16Probe, pages, rounds int) migOutcome {
	out := migOutcome{name: pt.name}
	cfg := journaledConfig(o)
	if pt.src != 0 {
		cfg.VCPUs = pt.src
	}
	if pt.plan != nil {
		cfg.Fault = pt.plan()
	}
	sys := core.NewSystem(cfg)
	o.observe(sys.World, "migrate/"+pt.name)
	var done bool
	e16Register(sys, pages, rounds, &done)
	pid, err := sys.Spawn("victim", core.Cloaked())
	if err != nil {
		panic(err)
	}

	var blobs [][]byte
	var migErr error
	capture := func() {
		blob, st, cerr := migrate.Migrate(sys, sys.DomainOf(pid))
		out.retries += st.Retries
		if cerr != nil {
			migErr = cerr
			return
		}
		blobs = append(blobs, blob)
	}
	at := pt.at(probe)
	if pt.replay {
		sys.MigrateAt(at, func() {
			capture()
			sys.MigrateAt(7*probe.total/8, capture)
		})
	} else {
		sys.MigrateAt(at, capture)
	}
	sys.Run()
	out.srcLive = done && !sys.Crashed()
	out.secrecy = !leaked(sys, e16secret[:8])

	if migErr != nil {
		// The transfer aborted: nothing was delivered, the source ran on.
		// Only the typed abort is acceptable; anything else fails the row.
		out.aborted = true
		typed := errors.Is(migErr, migrate.ErrTransferAborted)
		out.integrity, out.freshness = typed, typed
		return out
	}
	blob := blobs[len(blobs)-1] // replay rows land the fresher capture
	out.secrecy = out.secrecy && !bytes.Contains(blob, e16secret[:8])

	dcfg := journaledConfig(o)
	if pt.dst != 0 {
		dcfg.VCPUs = pt.dst
	}
	dst := core.NewSystem(dcfg)
	o.observe(dst.World, "land/"+pt.name)
	rep, rerr := migrate.Restore(dst, blob)
	if rerr != nil {
		// A channel-mangled blob may be refused whole (header or trailer
		// damage): typed malformed, nothing restored, nothing leaked.
		out.aborted = true
		typed := errors.Is(rerr, migrate.ErrCheckpointMalformed)
		out.integrity, out.freshness = typed, typed
		return out
	}
	out.pages = len(rep.Pages)
	out.recovered = rep.Recovered
	out.unavail = rep.Unavailable
	out.rejected = len(rep.Rejections)

	// Integrity, half one: every recovered page carries exactly what the
	// victim wrote; every unavailable page carries nothing.
	integrity := true
	var marker [][]byte
	for _, pg := range rep.Pages {
		if pg.State == core.Recovered {
			if bytes.HasPrefix(pg.Data, e16secret) {
				stamp := binary.LittleEndian.Uint64(pg.Data[64:72])
				if stamp >= uint64(pages) {
					integrity = false
				} else {
					marker = append(marker, pg.Data)
				}
			}
		} else if pg.Data != nil {
			integrity = false
		}
	}

	// Integrity, half two: the domain actually resumes — a cloaked job on
	// the destination re-creates the victim's pages from the verified
	// plaintext and re-checks marker and stamp through its own view.
	var resumed bool
	dst.Register("resume", func(e core.Env) {
		base := must1(e.Alloc(pages))
		for _, data := range marker {
			i := binary.LittleEndian.Uint64(data[64:72])
			va := base + core.Addr(i)*core.PageSize
			e.WriteMem(va, data)
		}
		head := make([]byte, len(e16secret))
		for _, data := range marker {
			i := binary.LittleEndian.Uint64(data[64:72])
			va := base + core.Addr(i)*core.PageSize
			e.ReadMem(va, head)
			if !bytes.Equal(head, e16secret) || e.Load64(va+64) != i {
				return
			}
		}
		resumed = true
		e.Exit(0)
	})
	mustSpawn(dst, "resume")
	dst.Run()
	out.integrity = integrity && resumed

	out.freshness = rep.RejectedBy(persist.RejectRollback) == 0 &&
		rep.RejectedBy(persist.RejectStaleEpoch) == 0 &&
		dst.Journal.Epoch() > rep.Epoch

	if pt.replay {
		// Re-present the older checkpoint: the destination must refuse it
		// typed, audit the rollback, and quarantine the target domain.
		_, replayErr := migrate.Restore(dst, blobs[0])
		audited := countEvents(dst, vmm.EventMigrationRollback) > 0
		out.freshness = out.freshness && errors.Is(replayErr, migrate.ErrStaleCheckpoint) &&
			audited && dst.VMM.Quarantined(rep.Domain)
	}

	out.secrecy = out.secrecy && !leaked(dst, e16secret[:8])
	return out
}
