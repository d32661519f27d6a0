package harness

import (
	"sync"
	"time"

	"overshadow/internal/sim"
)

// This file is the sharded execution engine. Every experiment decomposes
// into independent world-building jobs (each sim.World owns its clock, RNG,
// tracer, and metrics store, so per-world determinism is free); jobs run on
// a bounded worker pool, and results are collected in declaration order.
// Simulated cycles — and therefore every table, trace, and metrics export —
// are byte-identical for any shard count, including -shards 1. Sharding
// changes host wall time only.
//
// Host-time calls (time.Now) are deliberately confined to this package: the
// harness measures the simulator from outside and is not itself part of the
// deterministic machine (overlint's determinism analyzer does not gate it).

// pool bounds how many benchmark jobs run concurrently.
type pool struct{ sem chan struct{} }

func newPool(shards int) *pool {
	if shards < 1 {
		shards = 1
	}
	return &pool{sem: make(chan struct{}, shards)}
}

// future is the handle submit returns; wait blocks until the job finishes.
// wait is called only from the experiment goroutine that submitted the job,
// so the cached value needs no lock.
type future[T any] struct {
	ch   chan T
	val  T
	done bool
}

func (f *future[T]) wait() T {
	if !f.done {
		f.val = <-f.ch
		f.done = true
	}
	return f.val
}

// submit schedules one world-building job. Jobs are numbered in submission
// order on the experiment goroutine, so observer slots sort back into
// declaration order no matter which worker finishes first. With no pool
// (direct RunEn calls, as the shape tests do) the job runs inline and the
// key stays zero — the old serial semantics exactly. Under RunAll the job's
// host time is measured inside its pool slot, so queue wait is excluded.
func submit[T any](o Options, fn func(Options) T) *future[T] {
	if o.obsSeq != nil {
		o.obsKey = o.obsBase | *o.obsSeq
		*o.obsSeq++
	}
	f := &future[T]{ch: make(chan T, 1)}
	if o.pool == nil {
		f.val, f.done = fn(o), true
		return f
	}
	p := o.pool
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		start := time.Now()
		v := fn(o)
		o.tally.addHost(time.Since(start))
		f.ch <- v
	}()
	return f
}

// sweep runs one job per item and returns the results in item order. Every
// job is submitted before any is waited on, so the items share the pool and
// their observer keys follow item order.
func sweep[S, O any](opts Options, items []S, run func(Options, S) O) []O {
	futs := make([]*future[O], len(items))
	for i, it := range items {
		futs[i] = submit(opts, func(o Options) O { return run(o, it) })
	}
	out := make([]O, len(items))
	for i, f := range futs {
		out[i] = f.wait()
	}
	return out
}

// tally records every world an experiment builds so RunAll can report its
// simulated-cycle total without the experiments threading sums around, and
// sums the host time its jobs spent inside pool slots.
type tally struct {
	mu     sync.Mutex
	worlds []*sim.World
	host   time.Duration
}

func (t *tally) add(w *sim.World) {
	t.mu.Lock()
	t.worlds = append(t.worlds, w)
	t.mu.Unlock()
}

func (t *tally) addHost(d time.Duration) {
	t.mu.Lock()
	t.host += d
	t.mu.Unlock()
}

// sum totals the final clocks and the jobs' host time. Call only after the
// experiment's Run has returned (every job joined), so the clocks are
// quiescent.
func (t *tally) sum() (cycles uint64, hostNS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, w := range t.worlds {
		cycles += uint64(w.Now())
	}
	return cycles, t.host.Nanoseconds()
}

// Result is one experiment's outcome under RunAll: the rendered table plus
// the two cost axes the bench record reports — simulated cycles (identical
// for any shard count) and host time, summed over the experiment's jobs
// while each held a pool slot (queue wait excluded, so jobs that ran in
// parallel each count in full).
type Result struct {
	Table     *Table
	SimCycles uint64
	HostNS    int64
}

// RunAll executes the given experiments over a worker pool of the given
// width and returns results in declaration order. Each experiment gets a
// goroutine that only composes tables from job futures; the actual world
// construction runs as pool jobs, so total concurrency is bounded by shards
// regardless of how many experiments are in flight.
func RunAll(opts Options, exps []Experiment, shards int) []Result {
	p := newPool(shards)
	out := make([]Result, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		o := opts
		o.pool = p
		o.obsBase = (uint64(i) + 1) << 32
		o.obsSeq = new(uint64)
		o.tally = &tally{}
		wg.Add(1)
		go func(i int, e Experiment, o Options) {
			defer wg.Done()
			tab := e.Run(o)
			cycles, host := o.tally.sum()
			out[i] = Result{Table: tab, SimCycles: cycles, HostNS: host}
		}(i, e, o)
	}
	wg.Wait()
	return out
}
