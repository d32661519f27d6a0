package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"overshadow/internal/sim"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Req    int32  `json:"req"`    // the op this span belongs to, -1 for none
	Ep     int32  `json:"episode"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory and accumulates the CPU
// profile of every traced measured phase. A nil *tracer records nothing, so
// untraced episodes pay one nil check per span.
type tracer struct {
	origin  time.Time
	spans   []span
	reqs    int32
	episode int32
	prof    bytes.Buffer
	profErr error
	layers  map[string]float64 // profile seconds per layer
	sched   float64            // profile seconds under the Go scheduler
	total   float64            // profile seconds, all layers
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), layers: map[string]float64{}}
}

// newReq allocates an op's request ID.
func (t *tracer) newReq() int32 {
	if t == nil {
		return -1
	}
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its ID (-1 when untraced).
func (t *tracer) begin(name string, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Ep: t.episode, Name: name,
		Start: time.Since(t.origin).Nanoseconds()})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
}

func (t *tracer) startProfile() {
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		t.profErr = err
	}
}

// stopProfile ends the measured phase's profile and folds it into the
// per-layer totals.
func (t *tracer) stopProfile() {
	pprof.StopCPUProfile()
	if t.profErr != nil {
		return
	}
	samples, err := parseProfile(t.prof.Bytes())
	if err != nil {
		t.profErr = err
		return
	}
	for _, s := range samples {
		sec := float64(s.nanos) / 1e9
		t.layers[layerOf(s.stack)] += sec
		t.total += sec
		if inScheduler(s.stack) {
			t.sched += sec
		}
	}
}

// durations returns the durations of all spans named name, in units.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// dump writes the spans as JSON lines and returns the file's path.
func (t *tracer) dump(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// profLayers are the profile buckets reported as <layer>.self_s: the
// simulator's internal packages, the Go runtime (samples with no module
// frame on the stack: GC workers, the scheduler, the profiler) and the
// benchmark's own code.
var profLayers = []string{"sim", "mmu", "vmm", "cloak", "guestos", "shim", "persist", "migrate", "mach", "core", "runtime", "bench"}

// layerMetrics reduces a traced run to the per-layer metrics. Counts are
// one episode's measured-phase deltas (identical in every episode); host
// ratios come from the untraced episodes, profile and span figures from
// the traced ones.
func (r *runReport) layerMetrics(plain, traced []*episode) {
	tr := r.tr
	put := func(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }
	c := plain[0].counters
	cnt := func(k sim.Counter) float64 { return float64(c[k]) }
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	nTraced := float64(max(1, len(traced))) // 0 only when the run failed early
	if tr.profErr != nil {
		problemf(&r.problems, "cpu profile: %v", tr.profErr)
	}
	for _, l := range profLayers {
		put(l+".self_s", tr.layers[l]/nTraced, "s")
	}
	put("bench.profile_s", tr.total/nTraced, "s")

	var measured time.Duration
	var ops int
	var alloc uint64
	var gc float64
	var rates, tracedRates []float64
	for _, ep := range plain {
		measured += ep.measure
		ops += len(ep.opsUS)
		alloc += ep.allocB
		rates = append(rates, ep.rate(float64(len(ep.opsUS))))
	}
	for _, ep := range traced {
		gc += ep.gcCPU
		tracedRates = append(tracedRates, ep.rate(float64(len(ep.opsUS))))
	}
	overhead := 0.0
	if r := median(rates); r > 0 {
		overhead = 1 - median(tracedRates)/r
	}
	put("bench.trace_overhead_frac", overhead, "1")

	put("sim.mem_access", cnt(sim.CtrMemAccess), "count")
	perAccess := 0.0
	if n := cnt(sim.CtrMemAccess) * float64(len(plain)); n > 0 {
		perAccess = float64(measured.Nanoseconds()) / n
	}
	put("sim.ns_per_mem_access", perAccess, "ns")

	put("mmu.tlb_hit", cnt(sim.CtrTLBHit), "count")
	put("mmu.tlb_miss", cnt(sim.CtrTLBMiss), "count")
	put("mmu.tlb_hit_ratio", ratio(cnt(sim.CtrTLBHit), cnt(sim.CtrTLBMiss)), "1")
	put("mmu.tlb_evict", cnt(sim.CtrTLBEvict), "count")

	put("vmm.shadow_fill", cnt(sim.CtrShadowFill), "count")
	put("vmm.fault_hidden", cnt(sim.CtrHiddenFault), "count")
	put("vmm.fault_cloak", cnt(sim.CtrCloakFault), "count")
	put("vmm.worldswitch", cnt(sim.CtrWorldSwitch), "count")

	put("cloak.encrypt", cnt(sim.CtrPageEncrypt), "count")
	put("cloak.decrypt", cnt(sim.CtrPageDecrypt), "count")
	put("cloak.verify_fail", cnt(sim.CtrHashVerifyFail), "count")
	put("cloak.metacache_hit_ratio", ratio(cnt(sim.CtrMetaCacheHit), cnt(sim.CtrMetaCacheMiss)), "1")

	put("guestos.syscall", cnt(sim.CtrSyscall), "count")
	put("guestos.ctxswitch", cnt(sim.CtrContextSwitch), "count")
	put("guestos.swap_out", cnt(sim.CtrPageOut), "count")
	put("guestos.swap_in", cnt(sim.CtrPageIn), "count")
	put("guestos.call_us", median(tr.durations("guestos.Env.Null", time.Microsecond)), "us")

	put("shim.syscall", cnt(sim.CtrShimSyscall), "count")
	put("shim.marshal_bytes", cnt(sim.CtrShimMarshalBytes), "bytes")
	put("shim.retry", cnt(sim.CtrShimRetry), "count")
	put("shim.call_us", median(tr.durations("shim.Env.Null", time.Microsecond)), "us")

	put("persist.append", cnt(sim.CtrJournalAppend), "count")
	put("persist.checkpoint", cnt(sim.CtrJournalCheckpoint), "count")

	put("migrate.capture_ms", median(tr.durations("migrate.Capture", time.Millisecond)), "ms")
	put("migrate.transfer_ms", median(tr.durations("migrate.Transfer", time.Millisecond)), "ms")
	put("migrate.restore_ms", median(tr.durations("migrate.Restore", time.Millisecond)), "ms")
	put("migrate.ckpt_pages", cnt(sim.CtrMigrateCkptPage), "count")
	put("migrate.blob_kib", plain[0].blobKiB, "KiB")

	put("mach.disk_read", cnt(sim.CtrDiskRead), "count")
	put("mach.disk_write", cnt(sim.CtrDiskWrite), "count")

	put("core.new_system_ms", median(tr.durations("core.NewSystem", time.Millisecond)), "ms")
	put("core.run_s", median(tr.durations("core.Run", time.Second)), "s")

	put("runtime.gc_s", gc/nTraced, "s")
	put("runtime.sched_s", tr.sched/nTraced, "s")
	perOp := 0.0
	if ops > 0 {
		perOp = float64(alloc) / 1024 / float64(ops)
	}
	put("runtime.alloc_kb_per_op", perOp, "KiB")
}
