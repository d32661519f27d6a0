// Package sim is driver testdata for stale allow directives, loaded under
// the determinism-gated import path overshadow/internal/sim.
package sim

import "time"

func used() int64 {
	//overlint:allow determinism -- testdata: suppresses the host-clock read below
	return time.Now().UnixNano()
}

func stale() int {
	//overlint:allow determinism -- testdata: nothing below to suppress
	return 1
}

func otherAnalyzer() int {
	//overlint:allow hotpathalloc -- testdata: stale only when hotpathalloc runs
	return 2
}

func mixed() int64 {
	//overlint:allow determinism,hotpathalloc -- testdata: only the determinism name is used
	return time.Now().UnixNano()
}
