package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"overshadow/internal/core"
	"overshadow/internal/mach"
	"overshadow/internal/persist"
	"overshadow/internal/sim"
)

// kv-swap: a cloaked key-value server on a 2-vCPU guest serves a closed
// loop of two clients (its cloaked children) over pipes. Each client owns
// the keys of its parity, so it knows the last value it PUT for every key
// it asks about. The request mix is taken from sources, not chosen here:
// 30% PUTs with 64 B or 252 B values, as in the repository's E12
// key-value experiment (EXPERIMENTS.md, internal/harness/kv.go), and keys
// drawn from a Zipf distribution with YCSB's default constant 0.99
// (Cooper et al., "Benchmarking Cloud Serving Systems with YCSB",
// SoCC 2010). The table (one page per key) is four times the guest's RAM,
// with the metadata journal on: the measured phase pages cloaked table
// pages out (encrypt) and in (decrypt) while journaling. A native probe
// process issues a null syscall between sleeps. One op is one request
// round trip, timed by the client.

const (
	kvRAMPages  = 256
	kvKeys      = 4 * kvRAMPages // one page per key: table = 4x RAM
	kvClients   = 2
	kvWarmOps   = 1000 // per client, before the measured phase
	kvOps       = 4000 // per client, measured
	kvPutPct    = 30   // E12's PUT share
	kvZipfS     = 0.99 // YCSB's zipfian constant
	kvHdr       = 16   // request and reply header bytes
	kvSlotHdr   = 32   // canary[16] key[4] version[4] len[4] pad[4]
	kvProbeCyc  = 200_000
	kvOpGet     = 'G'
	kvOpPut     = 'P'
	kvOpQuit    = 'Q'
	kvStatusOK  = 1
	kvStatusBad = 2
)

// kvValueSizes are E12's value sizes in bytes.
var kvValueSizes = []int{64, 252}

// kvValue is the value stored under key at version: its size and bytes
// are a function of (seed, key, version) alone.
func kvValue(seed uint64, key, version uint32) []byte {
	r := newRNG("kv-swap/value", seed, uint64(key), uint64(version))
	v := make([]byte, kvValueSizes[r.IntN(len(kvValueSizes))])
	fill(r, v)
	return v
}

// kvCanary is the seeded plaintext marker every table slot carries; it
// lives only in the server's cloaked memory and must never reach a disk.
func kvCanary(seed uint64) []byte {
	c := make([]byte, 16)
	binary.LittleEndian.PutUint64(c, mix("kv-swap/canary", seed))
	copy(c[8:], "KVCANARY")
	return c
}

// zipf samples ranks 0..n-1 with P(rank k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := range z.cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) sample(r *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, r.Float64()), len(z.cdf)-1)
}

// kvRequest is one client request.
type kvRequest struct {
	op      byte
	key     uint32
	version uint32 // the version a PUT writes
}

// kvSchedule derives client c's request stream from the seed. Client c
// owns the keys of parity c; a seeded permutation decides which of them
// are hot.
func kvSchedule(seed uint64, c, n int) []kvRequest {
	r := newRNG("kv-swap/client", seed, uint64(c))
	hot := r.Perm(kvKeys / kvClients) // rank -> index among the client's keys
	z := newZipf(len(hot), kvZipfS)
	version := map[uint32]uint32{}
	reqs := make([]kvRequest, n)
	for i := range reqs {
		key := uint32(c + kvClients*hot[z.sample(r)])
		if r.IntN(100) < kvPutPct {
			version[key]++
			reqs[i] = kvRequest{op: kvOpPut, key: key, version: version[key]}
		} else {
			reqs[i] = kvRequest{op: kvOpGet, key: key, version: version[key]}
		}
	}
	return reqs
}

func putHdr(b []byte, op byte, key, version uint32, n int) {
	b[0] = op
	binary.LittleEndian.PutUint32(b[4:], key)
	binary.LittleEndian.PutUint32(b[8:], version)
	binary.LittleEndian.PutUint32(b[12:], uint32(n))
}

func getHdr(b []byte) (op byte, key, version uint32, n int) {
	return b[0], binary.LittleEndian.Uint32(b[4:]), binary.LittleEndian.Uint32(b[8:]), int(binary.LittleEndian.Uint32(b[12:]))
}

// readFull reads exactly n bytes from fd into guest memory at va.
func readFull(e core.Env, fd int, va core.Addr, n int) bool {
	for got := 0; got < n; {
		m, err := e.Read(fd, va+core.Addr(got), n-got)
		if err != nil || m == 0 {
			return false
		}
		got += m
	}
	return true
}

// writeFull writes n bytes of guest memory at va to fd.
func writeFull(e core.Env, fd int, va core.Addr, n int) bool {
	for off := 0; off < n; {
		m, err := e.Write(fd, va+core.Addr(off), n-off)
		if err != nil {
			return false
		}
		off += m
	}
	return true
}

func runKVSwap(p params, heap *heapSampler) *episode {
	ep := &episode{}
	warmOps, ops := kvWarmOps/p.scale, kvOps/p.scale
	canary := kvCanary(p.seed)
	scheds := make([][]kvRequest, kvClients)
	for c := range scheds {
		scheds[c] = kvSchedule(p.seed, c, warmOps+ops)
	}
	if p.plant {
		// Expect a version the server never stored: the first GET fails.
		for i := warmOps; i < len(scheds[0]); i++ {
			if scheds[0][i].op == kvOpGet {
				scheds[0][i].version += 1000
				break
			}
		}
	}

	m := newMeter(ep, p.tr, heap)
	sys := newSystem(p.tr, -1, -1, core.Config{
		MemoryPages: kvRAMPages,
		VCPUs:       2,
		Seed:        p.seed,
		Persist:     &persist.Options{},
	})
	m.sys = sys
	var warmed, finished int

	sys.Register("kv-server", func(e core.Env) {
		bell, bellW, err := e.Pipe()
		if err != nil {
			problemf(&ep.problems, "kv-server: pipe: %v", err)
			return
		}
		var req, rep [kvClients][2]int // [client]{read end, write end}
		for c := 0; c < kvClients; c++ {
			r1, w1, err1 := e.Pipe()
			r2, w2, err2 := e.Pipe()
			if err1 != nil || err2 != nil {
				problemf(&ep.problems, "kv-server: pipe: %v %v", err1, err2)
				return
			}
			req[c], rep[c] = [2]int{r1, w1}, [2]int{r2, w2}
		}
		for c := 0; c < kvClients; c++ {
			if _, err := e.Fork(func(ce core.Env) {
				kvClient(ce, p, m, c, scheds[c], warmOps, bellW, req[c][1], rep[c][0], &warmed, &finished)
			}); err != nil {
				problemf(&ep.problems, "kv-server: fork: %v", err)
				return
			}
		}
		kvServe(e, p.seed, canary, bell, req, rep, ep)
		for c := 0; c < kvClients; c++ {
			if _, status, err := e.WaitPid(-1); err != nil || status != 0 {
				problemf(&ep.problems, "kv client exit status %d, err %v", status, err)
			}
		}
		e.Exit(0)
	})
	sys.Register("probe", probe(m, kvProbeCyc, func() bool { return finished == kvClients }))
	spawn(ep, sys, "kv-server", true)
	spawn(ep, sys, "probe", false)
	runSystem(p.tr, sys)
	m.finish()
	if n := ep.counters[sim.CtrPageOut]; n == 0 {
		problemf(&ep.problems, "kv-swap measured phase paged nothing out")
	}
	if n := ep.counters[sim.CtrJournalWedged]; n != 0 {
		problemf(&ep.problems, "journal wedged %d times", n)
	}
	checkCanary(ep, sys, canary)
	return ep
}

// kvServe answers requests until every client has quit. A client rings
// the shared doorbell pipe with its index after writing a request to its
// own request pipe, so the server never blocks on an idle client.
func kvServe(e core.Env, seed uint64, canary []byte, bell int, req, rep [kvClients][2]int, ep *episode) {
	table, err := e.Alloc(kvKeys)
	if err != nil {
		problemf(&ep.problems, "kv-server: alloc table: %v", err)
		return
	}
	io, err := e.Alloc(2)
	if err != nil {
		problemf(&ep.problems, "kv-server: alloc io: %v", err)
		return
	}
	slotOf := func(key uint32) core.Addr { return table + core.Addr(key)*mach.PageSize }
	page := make([]byte, mach.PageSize)
	writeSlot := func(key, version uint32, val []byte) {
		copy(page, canary)
		binary.LittleEndian.PutUint32(page[16:], key)
		binary.LittleEndian.PutUint32(page[20:], version)
		binary.LittleEndian.PutUint32(page[24:], uint32(len(val)))
		copy(page[kvSlotHdr:], val)
		e.WriteMem(slotOf(key), page[:kvSlotHdr+len(val)])
	}
	for key := uint32(0); key < kvKeys; key++ {
		writeSlot(key, 0, kvValue(seed, key, 0))
	}

	hdr := make([]byte, kvHdr)
	slotHdr := make([]byte, kvSlotHdr)
	active := kvClients
	for active > 0 {
		if !readFull(e, bell, io, 1) {
			problemf(&ep.problems, "kv-server: doorbell closed")
			return
		}
		e.ReadMem(io, hdr[:1])
		c := int(hdr[0])
		if c >= kvClients || !readFull(e, req[c][0], io, kvHdr) {
			problemf(&ep.problems, "kv-server: bad request from client %d", c)
			return
		}
		e.ReadMem(io, hdr)
		op, key, version, n := getHdr(hdr)
		switch {
		case op == kvOpQuit:
			active--
			continue
		case key >= kvKeys || n > mach.PageSize-kvSlotHdr:
			putHdr(hdr, kvStatusBad, key, 0, 0)
			e.WriteMem(io, hdr)
			writeFull(e, rep[c][1], io, kvHdr)
			continue
		case op == kvOpPut:
			if !readFull(e, req[c][0], io, n) {
				problemf(&ep.problems, "kv-server: short PUT")
				return
			}
			val := make([]byte, n)
			e.ReadMem(io, val)
			writeSlot(key, version, val)
			putHdr(hdr, kvStatusOK, key, version, 0)
			e.WriteMem(io, hdr)
			n = 0
		default: // GET
			e.ReadMem(slotOf(key), slotHdr)
			sv := binary.LittleEndian.Uint32(slotHdr[20:])
			sn := int(binary.LittleEndian.Uint32(slotHdr[24:]))
			status := byte(kvStatusOK)
			if !bytes.Equal(slotHdr[:16], canary) || binary.LittleEndian.Uint32(slotHdr[16:]) != key || sn > mach.PageSize-kvSlotHdr {
				status, sn = kvStatusBad, 0
			}
			out := make([]byte, kvHdr+sn)
			putHdr(out, status, key, sv, sn)
			e.ReadMem(slotOf(key)+kvSlotHdr, out[kvHdr:])
			e.WriteMem(io, out)
			n = sn
		}
		if !writeFull(e, rep[c][1], io, kvHdr+n) {
			problemf(&ep.problems, "kv-server: reply to client %d failed", c)
			return
		}
		e.Compute(500) // request parsing and hashing
	}
}

// kvClient issues its request stream, checks every reply, and times the
// measured requests.
func kvClient(e core.Env, p params, m *meter, c int, sched []kvRequest, warmOps int,
	bell, reqW, repR int, warmed, finished *int) {
	io, err := e.Alloc(2)
	if err != nil {
		problemf(&m.ep.problems, "kv client %d: alloc: %v", c, err)
		return
	}
	hdr := make([]byte, kvHdr)
	ring := func() bool {
		e.WriteMem(io, []byte{byte(c)})
		return writeFull(e, bell, io, 1)
	}
	// do runs one request; tr is nil for warm-up requests, which record no
	// spans.
	do := func(r kvRequest, tr *tracer, op, req int32) bool {
		var msg []byte
		if r.op == kvOpPut {
			val := kvValue(p.seed, r.key, r.version)
			msg = make([]byte, kvHdr+len(val))
			putHdr(msg, kvOpPut, r.key, r.version, len(val))
			copy(msg[kvHdr:], val)
		} else {
			msg = make([]byte, kvHdr)
			putHdr(msg, kvOpGet, r.key, 0, 0)
		}
		e.WriteMem(io, msg)
		id := tr.begin("shim.Env.Write", op, req)
		ok := writeFull(e, reqW, io, len(msg)) && ring()
		tr.end(id)
		if !ok {
			return false
		}
		// Read the whole reply before judging it, so a wrong answer cannot
		// leave bytes in the pipe that desynchronise the next request.
		id = tr.begin("shim.Env.Read", op, req)
		ok = readFull(e, repR, io, kvHdr)
		e.ReadMem(io, hdr)
		status, key, version, n := getHdr(hdr)
		ok = ok && n <= mach.PageSize-kvSlotHdr && readFull(e, repR, io, n)
		tr.end(id)
		if !ok {
			return false
		}
		got := make([]byte, n)
		e.ReadMem(io, got)
		if status != kvStatusOK || key != r.key || version != r.version {
			return false
		}
		if r.op == kvOpPut {
			return n == 0
		}
		return bytes.Equal(got, kvValue(p.seed, r.key, r.version))
	}
	for i, r := range sched {
		if i == warmOps {
			*warmed++
			for *warmed < kvClients && !m.expired() {
				e.Yield()
			}
			m.start()
		}
		if i < warmOps {
			if !do(r, nil, -1, -1) {
				problemf(&m.ep.problems, "kv client %d: warm-up request %d failed", c, i)
			}
			continue
		}
		req := p.tr.newReq()
		op := p.tr.begin("op.kv", -1, req)
		t0 := time.Now()
		ok := do(r, p.tr, op, req)
		d := time.Since(t0)
		p.tr.end(op)
		m.op(d, ok)
		id := p.tr.begin("shim.Env.Null", -1, req)
		e.Null()
		p.tr.end(id)
	}
	*finished++
	if *finished == kvClients {
		m.stop()
	}
	putHdr(hdr, kvOpQuit, 0, 0, 0)
	e.WriteMem(io, hdr)
	if !writeFull(e, reqW, io, kvHdr) || !ring() {
		problemf(&m.ep.problems, "kv client %d: quit failed", c)
	}
	e.Exit(0)
}

// checkCanary fails the episode if the seeded plaintext canary reached the
// swap or the filesystem disk.
func checkCanary(ep *episode, sys *core.System, canary []byte) {
	scan := func(name string, d *mach.Disk) {
		for b := uint64(0); b < d.NumBlocks(); b++ {
			if bytes.Contains(d.PokeRaw(b), canary) {
				problemf(&ep.problems, "plaintext canary found on the %s disk, block %d", name, b)
				return
			}
		}
	}
	scan("swap", sys.Kernel.SwapDisk())
	scan("fs", sys.Kernel.FS().Disk())
}
