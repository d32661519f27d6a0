package main

import (
	"fmt"
	"maps"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"overshadow/internal/core"
	"overshadow/internal/sim"
)

// offCounters must stay zero in every workload: they prove fault
// injection, the adversary and introspection are off.
var offCounters = []sim.Counter{
	sim.CtrFaultInjected,
	sim.CtrAttackDetected,
	sim.CtrQuarantine,
	sim.CtrIagoRejected,
	sim.CtrIntrospectScan,
}

// episode is the outcome of one boot-to-shutdown pass over a workload.
type episode struct {
	setup    time.Duration          // boot, input seeding and warm-up
	measure  time.Duration          // the measured phase
	opsUS    []float64              // host µs per measured op
	failed   int                    // measured ops whose output was wrong
	cycles   sim.Cycles             // simulated cycles of the measured phase
	counters map[sim.Counter]uint64 // sim.Stats deltas of the measured phase
	problems []string               // episode-level check failures
	allocB   uint64                 // Go heap bytes allocated in the measured phase
	gcCPU    float64                // GC CPU seconds in the measured phase
	blobKiB  float64                // mean migration blob size (migrate-churn)
}

// meter brackets an episode's measured phase. The workload calls start just
// before its first measured op and stop right after its last one, from
// whichever guest body or hook gets there; the baton scheduler guarantees
// only one of them runs at a time.
type meter struct {
	ep       *episode
	sys      *core.System
	tr       *tracer
	boot     time.Time
	started  bool
	stopped  bool
	t0       time.Time
	c0       sim.Cycles
	s0       map[sim.Counter]uint64
	rt0      [2]float64
	heapPeak *heapSampler
}

func newMeter(ep *episode, tr *tracer, heap *heapSampler) *meter {
	return &meter{ep: ep, tr: tr, boot: time.Now(), heapPeak: heap}
}

func (m *meter) start() {
	if m.started {
		return
	}
	m.started = true
	m.ep.setup = time.Since(m.boot)
	m.c0 = m.sys.Now()
	m.s0 = m.sys.Stats().Snapshot()
	m.rt0 = readRuntime()
	if m.tr != nil {
		m.tr.startProfile()
	}
	m.t0 = time.Now()
}

func (m *meter) stop() {
	if m.stopped || !m.started {
		return
	}
	m.stopped = true
	m.ep.measure = time.Since(m.t0)
	if m.tr != nil {
		m.tr.stopProfile()
	}
	rt := readRuntime()
	m.ep.allocB = uint64(rt[0] - m.rt0[0])
	m.ep.gcCPU = rt[1] - m.rt0[1]
	runtime.GC()
	m.heapPeak.sample()
	m.ep.cycles += m.sys.Now() - m.c0
	m.ep.addCounts(m.sys.Stats().DeltaSince(m.s0))
}

// addCounts adds counter values into the episode's deltas, leaving zeros
// out so that deltas compare equal whichever way they were gathered.
func (ep *episode) addCounts(d map[sim.Counter]uint64) {
	if ep.counters == nil {
		ep.counters = map[sim.Counter]uint64{}
	}
	for k, v := range d {
		if v != 0 {
			ep.counters[k] += v
		}
	}
}

// expired reports whether the episode has run past maxEpisode. Guest loops
// that wait for other guests check it, so a guest that died early (a
// failed check) cannot keep the machine spinning.
func (m *meter) expired() bool { return time.Since(m.boot) > maxEpisode }

// measuring reports whether the measured phase is running.
func (m *meter) measuring() bool { return m.started && !m.stopped }

// probe is a native guest program that issues a null syscall every `every`
// simulated cycles until done reports true. In the measured phase of a
// traced episode each call is a guestos.Env.Null span.
func probe(m *meter, every uint64, done func() bool) core.Program {
	return func(e core.Env) {
		for !done() && !m.expired() {
			id := int32(-1)
			if m.measuring() {
				id = m.tr.begin("guestos.Env.Null", -1, -1)
			}
			e.Null()
			m.tr.end(id)
			e.Sleep(every)
		}
	}
}

// op records one measured op's host duration and outcome.
func (m *meter) op(d time.Duration, ok bool) {
	m.ep.opsUS = append(m.ep.opsUS, float64(d.Nanoseconds())/1e3)
	if !ok {
		m.ep.failed++
	}
}

// finish checks that the measured phase ran and the off-layers stayed off.
func (m *meter) finish() {
	if !m.started || !m.stopped {
		problemf(&m.ep.problems, "measured phase never completed (started=%v stopped=%v)", m.started, m.stopped)
		return
	}
	for _, c := range offCounters {
		if v := m.ep.counters[c]; v != 0 {
			problemf(&m.ep.problems, "counter %s = %d, want 0", c, v)
		}
	}
}

// newSystem boots a machine inside a traced span when tracing is on.
func newSystem(tr *tracer, parent, req int32, cfg core.Config) *core.System {
	id := tr.begin("core.NewSystem", parent, req)
	sys := core.NewSystem(cfg)
	tr.end(id)
	return sys
}

// runSystem runs a machine inside a traced span when tracing is on.
func runSystem(tr *tracer, sys *core.System) {
	id := tr.begin("core.Run", -1, -1)
	sys.Run()
	tr.end(id)
}

// spawn starts a registered program or records why it could not.
func spawn(ep *episode, sys *core.System, name string, cloaked bool) core.Pid {
	var opts []core.SpawnOpt
	if cloaked {
		opts = append(opts, core.Cloaked())
	}
	pid, err := sys.Spawn(name, opts...)
	if err != nil {
		problemf(&ep.problems, "spawn %s: %v", name, err)
	}
	return pid
}

// runtimeMetrics are read at the measured phase's edges.
var runtimeMetrics = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() [2]float64 {
	s := []metrics.Sample{{Name: runtimeMetrics[0]}, {Name: runtimeMetrics[1]}}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// heapSampler tracks the peak over episodes of the live Go heap at the end
// of the measured phase: the bytes a forced collection marks reachable
// while the workload's machines (for migrate-churn, the source and the
// last destination) are still alive. Unlike heap bytes sampled in flight,
// this does not depend on how much garbage the collector's pacing happened
// to leave uncollected at the sample.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if h.s[0].Value.Kind() == metrics.KindUint64 {
		h.peak = max(h.peak, h.s[0].Value.Uint64())
	}
}

// compareEpisodes checks that a repeat of the same inputs reproduced the
// reference episode's simulated cycles and its whole counter snapshot
// exactly.
func compareEpisodes(ref, ep *episode) error {
	if ep.cycles != ref.cycles {
		return fmt.Errorf("simulated cycles %d differ from first episode's %d", ep.cycles, ref.cycles)
	}
	if !maps.Equal(ep.counters, ref.counters) {
		var diff []string
		for c, v := range ep.counters {
			if v != ref.counters[c] {
				diff = append(diff, fmt.Sprintf("%s = %d, first episode %d", c, v, ref.counters[c]))
			}
		}
		for c, v := range ref.counters {
			if _, ok := ep.counters[c]; !ok {
				diff = append(diff, fmt.Sprintf("%s = 0, first episode %d", c, v))
			}
		}
		slices.Sort(diff)
		return fmt.Errorf("counter deltas differ: %s", strings.Join(diff, "; "))
	}
	if len(ep.opsUS) != len(ref.opsUS) {
		return fmt.Errorf("%d ops differ from first episode's %d", len(ep.opsUS), len(ref.opsUS))
	}
	return nil
}
