package main

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"time"

	"overshadow/internal/cloak"
	"overshadow/internal/core"
	"overshadow/internal/mach"
	"overshadow/internal/migrate"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
)

// migrate-churn: a cloaked domain dirties a seeded fraction of its working
// set between checkpoints. Each checkpoint is captured at a seeded
// simulated time from a migration hook, transferred as a sealed blob,
// restored on a freshly booted destination machine, and every page of it
// verified. One op is one migration, from capture to verified restore; the
// first migration of an episode is warm-up.

const (
	mcPages     = 256 // working set of the migrating domain
	mcRAMPages  = 512
	mcMigrates  = 40      // measured migrations per episode
	mcPollCyc   = 20_000  // hook polling period while the domain dirties
	mcDelayMin  = 50_000  // seeded capture delay after the dirtying ends ...
	mcDelaySpan = 200_000 // ... drawn from [min, min+span)
	mcPageHdr   = 24      // canary[16] page[4] version[4]
)

// mcEighths are the dirty shares, in eighths of the working set, one per
// interval: an even sweep from one eighth to all of it. The repository
// holds no measured dirty rate, and Clark et al. ("Live Migration of
// Virtual Machines", NSDI 2005) measure writable working sets that differ
// widely between workloads, so the sweep covers the range evenly instead
// of standing for one application. A seeded shuffle of this fixed
// multiset keeps the episode's total work independent of the seed.
var mcEighths = []int{1, 2, 3, 4, 5, 6, 7, 8}

// mcFill writes the content of page idx at version into pg: canary, index,
// version and a body derived from (seed, idx, version).
func mcFill(pg []byte, seed uint64, canary []byte, idx, version uint32) {
	copy(pg, canary)
	binary.LittleEndian.PutUint32(pg[16:], idx)
	binary.LittleEndian.PutUint32(pg[20:], version)
	fill(newRNG("migrate-churn/page", seed, uint64(idx), uint64(version)), pg[mcPageHdr:])
}

func mcConfig(seed uint64) core.Config {
	return core.Config{MemoryPages: mcRAMPages, Seed: seed, Persist: &persist.Options{}}
}

func runMigrateChurn(p params, heap *heapSampler) *episode {
	ep := &episode{}
	pages := mcPages / p.scale
	migrations := mcMigrates / p.scale
	r := newRNG("migrate-churn", p.seed)
	canary := make([]byte, 16)
	binary.LittleEndian.PutUint64(canary, mix("migrate-churn/canary", p.seed))
	copy(canary[8:], "MGCANARY")

	// Interval i dirties dirty[i]; interval 0 writes every page once.
	intervals := migrations + 1
	eighths := make([]int, 0, intervals)
	for len(eighths) < migrations {
		for _, j := range r.Perm(len(mcEighths)) {
			eighths = append(eighths, mcEighths[j])
		}
	}
	dirty := make([][]uint32, intervals)
	delays := make([]sim.Cycles, intervals)
	for i := range dirty {
		order := r.Perm(pages)
		if i > 0 {
			order = order[:max(1, pages*eighths[i-1]/8)]
		}
		dirty[i] = make([]uint32, len(order))
		for j, idx := range order {
			dirty[i][j] = uint32(idx)
		}
		delays[i] = sim.Cycles(mcDelayMin + r.IntN(mcDelaySpan))
	}
	// Host shadow of what the domain last wrote to every page.
	version := make([]uint32, pages)
	shadow := make([][]byte, pages)
	for i := range shadow {
		shadow[i] = make([]byte, mach.PageSize)
	}

	m := newMeter(ep, p.tr, heap)
	sys := newSystem(p.tr, -1, -1, mcConfig(p.seed))
	m.sys = sys
	var ready, migrated int // intervals dirtied / migrations done

	sys.Register("victim", func(e core.Env) {
		base, err := e.Alloc(pages)
		if err != nil {
			problemf(&ep.problems, "victim: alloc: %v", err)
			return
		}
		for i := 0; i < intervals; i++ {
			for _, idx := range dirty[i] {
				v := version[idx]
				if i > 0 {
					v++
				}
				mcFill(shadow[idx], p.seed, canary, idx, v)
				e.WriteMem(base+core.Addr(idx)*mach.PageSize, shadow[idx])
				version[idx] = v
			}
			id := int32(-1)
			if m.measuring() {
				id = p.tr.begin("shim.Env.Null", -1, -1)
			}
			e.Null()
			p.tr.end(id)
			ready = i + 1
			for migrated < ready && !m.expired() {
				e.Sleep(mcPollCyc)
			}
		}
	})
	sys.Register("probe", probe(m, 5*mcPollCyc, func() bool { return migrated == intervals }))
	pid := spawn(ep, sys, "victim", true)
	spawn(ep, sys, "probe", false)

	var blobBytes int
	planted := false
	migrateOnce := func() {
		measured := migrated > 0
		want := slices.Clone(version)
		if p.plant && measured && !planted {
			want[0] += 1000 // a version the domain never wrote
			planted = true
		}
		req := p.tr.newReq()
		op := p.tr.begin("op.migrate", -1, req)
		t0 := time.Now()
		dst, rep, blob, err := migrateDomain(p.tr, op, req, sys, sys.DomainOf(pid), p.seed)
		d := time.Since(t0)
		p.tr.end(op)
		ok := err == nil && verifyRestore(ep, rep, dst, blob, canary, want, shadow)
		if err != nil {
			problemf(&ep.problems, "migration %d: %v", migrated, err)
		}
		migrated++
		if !measured {
			m.start()
			return
		}
		m.op(d, ok)
		blobBytes += len(blob)
		if dst != nil {
			ep.cycles += dst.Now()
			ep.addCounts(dst.Stats().Snapshot())
		}
		if migrated == intervals {
			m.stop()
		}
		runtime.KeepAlive(dst) // the heap footprint includes one destination
	}
	// The hook polls until the domain has dirtied its interval, then fires
	// again after the interval's seeded delay and migrates.
	armed := false
	var hook func()
	hook = func() {
		switch {
		case migrated == intervals:
			return
		case migrated == ready:
			sys.MigrateAt(sys.Now()+mcPollCyc, hook)
		case !armed:
			armed = true
			sys.MigrateAt(sys.Now()+delays[migrated], hook)
		default:
			armed = false
			migrateOnce()
			sys.MigrateAt(sys.Now()+mcPollCyc, hook)
		}
	}
	sys.MigrateAt(mcPollCyc, hook)
	runSystem(p.tr, sys)
	m.finish()
	if migrated != intervals {
		problemf(&ep.problems, "%d of %d migrations ran", migrated, intervals)
	}
	if migrations > 0 {
		ep.blobKiB = float64(blobBytes) / float64(migrations) / 1024
	}
	checkCanary(ep, sys, canary)
	return ep
}

// migrateDomain captures domain d on src, transfers its sealed checkpoint
// and restores it on a fresh destination machine, each step in a span.
func migrateDomain(tr *tracer, op, req int32, src *core.System, d cloak.DomainID, seed uint64) (*core.System, *migrate.Report, []byte, error) {
	id := tr.begin("migrate.Capture", op, req)
	ckpt, err := migrate.Capture(src, d)
	tr.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	id = tr.begin("migrate.Transfer", op, req)
	blob, _, err := migrate.Transfer(src, ckpt)
	tr.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	dst := newSystem(tr, op, req, mcConfig(seed))
	id = tr.begin("migrate.Restore", op, req)
	rep, err := migrate.Restore(dst, blob)
	tr.end(id)
	return dst, rep, blob, err
}

// verifyRestore checks one restore: every page recovered with 0 rejections
// and 0 failed hash verifications, every working-set page present once
// with the version the domain last wrote and the exact body, and no
// plaintext canary in the blob or on the destination's disks.
func verifyRestore(ep *episode, rep *migrate.Report, dst *core.System, blob, canary []byte, want []uint32, shadow [][]byte) bool {
	if len(rep.Rejections) != 0 || rep.Unavailable != 0 || rep.Recovered != len(rep.Pages) {
		problemf(&ep.problems, "restore: %d rejections, %d unavailable, %d of %d recovered",
			len(rep.Rejections), rep.Unavailable, rep.Recovered, len(rep.Pages))
		return false
	}
	if n := dst.Stats().Get(sim.CtrHashVerifyFail); n != 0 {
		problemf(&ep.problems, "restore: %d failed hash verifications", n)
		return false
	}
	if bytes.Contains(blob, canary) {
		problemf(&ep.problems, "plaintext canary found in a migration blob")
		return false
	}
	seen := make([]bool, len(want))
	found := 0
	for _, pg := range rep.Pages {
		if pg.State != core.Recovered || !bytes.HasPrefix(pg.Data, canary) {
			continue
		}
		idx := binary.LittleEndian.Uint32(pg.Data[16:])
		if int(idx) >= len(want) || seen[idx] {
			return false
		}
		seen[idx] = true
		found++
		if binary.LittleEndian.Uint32(pg.Data[20:]) != want[idx] || !bytes.Equal(pg.Data, shadow[idx]) {
			return false
		}
	}
	if found != len(want) {
		return false
	}
	before := len(ep.problems)
	checkCanary(ep, dst, canary)
	return len(ep.problems) == before
}
