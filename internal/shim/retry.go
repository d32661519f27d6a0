package shim

import (
	"errors"

	"overshadow/internal/guestos"
	"overshadow/internal/obs"
	"overshadow/internal/sim"
	"overshadow/internal/vmm"
)

// Graceful degradation: the untrusted kernel and the (fault-injected)
// hypervisor surface can both fail transiently under the shim. Rather than
// panicking the whole simulation, secure I/O and domain setup retry with
// exponential backoff on the *simulated* clock — the schedule stays
// deterministic because Sleep is an ordinary timed syscall — and only a
// persistent failure degrades further: the process exits like a killed
// task, leaving siblings and the machine untouched.

// transient reports whether err is worth retrying: a hypervisor resource
// fault marked transient, or a guest I/O error (EIO), which the fault
// layer uses for injected disk and swap failures.
func transient(err error) bool {
	var rf *vmm.ResourceFault
	if errors.As(err, &rf) {
		return rf.Transient
	}
	return errors.Is(err, guestos.EIO)
}

// retryTransient runs fn, retrying transient failures up to
// sim.RetryAttempts times with exponential sim-clock backoff. The final
// error (nil on success, the last failure otherwise) is returned;
// non-transient errors return immediately.
func (s *Ctx) retryTransient(fn func() error) error {
	w := s.world()
	start := w.Now()
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil || !transient(err) || attempt == sim.RetryAttempts {
			// The retry span (first try through final outcome, backoff
			// included) is emitted only when a retry actually happened, so
			// fault-free traces and profiles carry no retry artifacts.
			if attempt > 0 {
				w.CPU().EmitSpan(obs.KindRetry, "transient", uint64(attempt), w.Now()-start)
			}
			return err
		}
		w.CPU().ChargeAdd(0, sim.CtrShimRetry, 1)
		s.uc.Sleep(uint64(sim.RetryBackoff(attempt)))
	}
}

// mustSetup runs a setup-critical hypercall with retry. Persistent failure
// means the process cannot be (or stay) cloaked; it exits with the killed
// status rather than panicking, so the rest of the machine keeps running.
func (s *Ctx) mustSetup(fn func() error) {
	if err := s.retryTransient(fn); err != nil {
		s.uc.Exit(128 + int(guestos.SIGKILL)) // never returns
	}
}
