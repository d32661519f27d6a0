// Package obs is the observability layer of the simulated machine:
// attribution keys, attributed cycle metrics, structured spans, and the
// exporters that render them (Chrome trace_event JSON for Perfetto, a
// flame-style text breakdown, and machine-readable metrics JSON).
//
// The package sits below internal/sim — sim timestamps and attributes every
// charge and span, obs only defines the data model and serialization — and
// imports nothing from the rest of the module, keeping the dependency graph
// acyclic. Every timestamp is a raw simulated-cycle count (uint64), never
// host time, so all exports are bit-identical for a given seed.
package obs

import (
	"cmp"
	"fmt"
	"strings"
)

// Attr identifies who was on the simulated CPU when a cycle was charged or a
// span was emitted. It is a comparable value used as the metrics bucket key;
// the zero Attr means "machine context" (boot, VMM internals, scheduler
// idle) before any guest task has been dispatched.
type Attr struct {
	// Phase is the experiment-phase label set by the harness
	// (e.g. "E2/cloaked"); empty outside harness runs.
	Phase string `json:"phase,omitempty"`
	// Domain is the cloaking domain ID, 0 for uncloaked contexts.
	Domain uint32 `json:"domain,omitempty"`
	// PID is the guest process (thread-group leader) ID; 0 for the machine
	// context.
	PID int `json:"pid,omitempty"`
	// TID is the guest task ID (equal to PID for single-threaded
	// processes).
	TID int `json:"tid,omitempty"`
	// Task is the guest task name.
	Task string `json:"task,omitempty"`
	// Cloaked reports whether the task runs under cloaking.
	Cloaked bool `json:"cloaked,omitempty"`
}

// String renders the attribution key compactly for text exports.
func (a Attr) String() string {
	if a == (Attr{}) {
		return "machine"
	}
	var b strings.Builder
	if a.Phase != "" {
		fmt.Fprintf(&b, "[%s] ", a.Phase)
	}
	if a.TID == 0 && a.PID == 0 {
		b.WriteString("machine")
	} else {
		fmt.Fprintf(&b, "pid %d tid %d", a.PID, a.TID)
		if a.Task != "" {
			fmt.Fprintf(&b, " %q", a.Task)
		}
	}
	if a.Domain != 0 {
		fmt.Fprintf(&b, " dom %d", a.Domain)
	}
	if a.Cloaked {
		b.WriteString(" cloaked")
	}
	return b.String()
}

// compare is the total order every export sorts attribution keys by: phase,
// domain, pid, tid, task, then uncloaked before cloaked.
func (a Attr) compare(b Attr) int {
	return cmp.Or(
		cmp.Compare(a.Phase, b.Phase),
		cmp.Compare(a.Domain, b.Domain),
		cmp.Compare(a.PID, b.PID),
		cmp.Compare(a.TID, b.TID),
		cmp.Compare(a.Task, b.Task),
		cmp.Compare(b2i(a.Cloaked), b2i(b.Cloaked)),
	)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
