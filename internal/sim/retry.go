package sim

// RetryAttempts is the number of retries after the first try that the
// shim's secure-I/O and domain-setup hypercalls, the migration transfer
// channel and migration's swap reads allow a transient failure. All of them
// back off on the *simulated* clock, so the schedule is part of the
// deterministic machine.
const RetryAttempts = 3

// RetryBackoff is the simulated-cycle pause before retry number attempt
// (counting from 0): 20k, 40k, 80k cycles.
func RetryBackoff(attempt int) Cycles { return 20_000 << attempt }
