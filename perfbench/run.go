package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// runReport aggregates a run's episodes into the printed result.
type runReport struct {
	episodes    int
	attempted   int
	failed      int
	problems    []string
	metrics     map[string]metric
	tailPct     float64
	tailSamples int
	tr          *tracer
}

// tailPercentiles are the candidates for op_tail_us, highest first: the
// usual reporting ladder, topped at p99 so that a run's tail is not set by
// its few slowest ops, where host noise dominates.
var tailPercentiles = []float64{99, 98, 95, 90, 80, 75, 50}

// tailPercentile is the highest candidate percentile that leaves at least
// ten of n samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return percentile(s, 50)
}

// rate is n per measured second; 0 for an episode whose measured phase
// never ran (already reported as a failure).
func (ep *episode) rate(n float64) float64 {
	if ep.measure <= 0 {
		return 0
	}
	return n / ep.measure.Seconds()
}

// runWorkload repeats episodes of w at seed until `seconds` of measured
// time have passed (and at least minEpisodes ran), then reduces them to
// metrics. With traced set, untraced and traced episodes alternate: the
// untraced ones give the reference rate for the tracing overhead and the
// host-time ratios, the traced ones the spans and the CPU profile.
func runWorkload(w workload, base params, seconds float64, traced bool) *runReport {
	rep := &runReport{metrics: map[string]metric{}}
	tr := newTracer()
	rep.tr = tr
	heap := newHeapSampler()
	var plain, withTrace []*episode
	var ref *episode
	begin := time.Now()
	var measured time.Duration
	minEps := minEpisodes
	if traced {
		minEps *= 2
	}
	for i := 0; ; i++ {
		enough := i >= minEps && measured.Seconds() >= seconds
		late := i >= 2 && time.Since(begin) > maxRun
		if enough || late || len(rep.problems) > 0 {
			break
		}
		runtime.GC() // start every episode from a collected heap
		p := base
		on := traced && i%2 == 1
		if on {
			p.tr = tr
			tr.episode++
		}
		ep := w.run(p, heap)
		rep.episodes++
		measured += ep.measure
		if on {
			withTrace = append(withTrace, ep)
		} else {
			plain = append(plain, ep)
		}
		rep.attempted += len(ep.opsUS)
		rep.failed += ep.failed
		if len(ep.problems) > 0 {
			// An episode whose run-wide checks failed counts all its ops.
			rep.failed += len(ep.opsUS) - ep.failed
			rep.problems = append(rep.problems, ep.problems...)
		}
		if ref == nil {
			ref = ep
		} else if err := compareEpisodes(ref, ep); err != nil {
			problemf(&rep.problems, "episode %d: %v", i, err)
		}
	}
	if rep.attempted == 0 {
		rep.attempted = 1
		rep.failed = 1
		problemf(&rep.problems, "no op was measured")
	}

	opsPerEp := len(ref.opsUS)
	rep.tailPct = tailPercentile(minEpisodes * opsPerEp)
	var lat []float64
	for _, ep := range plain {
		lat = append(lat, ep.opsUS...)
	}
	slices.Sort(lat)
	rep.tailSamples = len(lat)

	if traced {
		rep.layerMetrics(plain, withTrace)
		return rep
	}
	var rates, simRates, setups []float64
	for _, ep := range plain {
		rates = append(rates, ep.rate(float64(len(ep.opsUS))))
		simRates = append(simRates, ep.rate(float64(ep.cycles)/1e6))
		setups = append(setups, ep.setup.Seconds())
	}
	put := func(name string, v float64, unit string) { rep.metrics[name] = metric{v, unit} }
	put("ops_per_s", median(rates), "1/s")
	put("sim_mcycles_per_s", median(simRates), "Mcycles/s")
	put("op_p50_us", percentile(lat, 50), "us")
	put("op_tail_us", percentile(lat, rep.tailPct), "us")
	put("setup_s", median(setups), "s")
	put("heap_peak_mb", float64(heap.peak)/(1<<20), "MB")
	put("sim_mcycles", float64(ref.cycles)/1e6, "Mcycles")
	put("ok_frac", 1-float64(rep.failed)/float64(rep.attempted), "1")
	return rep
}
