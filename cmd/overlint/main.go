// Command overlint runs the module's domain-aware static analyzers:
//
//	determinism     — no host time, math/rand, multi-channel select, or
//	                  unscheduled goroutines inside the simulated machine
//	cloakboundary   — untrusted guestos code never touches machine memory,
//	                  cloaking secrets, or the vmm.DomainConn handle; outside
//	                  internal/vmm, domain hypercalls go through the typed
//	                  DomainConn handle, never the raw VMM.HC* forwarders
//	errnodiscipline — no raw errno literals, no discarded error/Errno results
//	cyclecharge     — exported memory-touching VMM/guestos functions charge
//	                  the sim cost model
//	plaintextflow   — interprocedural taint: cloaked plaintext (sealing keys,
//	                  decrypted pages) never reaches raw disk writes, trace
//	                  emission, or log output, even through helpers and
//	                  struct fields
//	hotpathalloc    — no heap allocations or map ranges on the forward
//	                  closure of the dispatch/charge/trace/fault fast paths
//	smpready        — no written package-level variables in mach/sim/vmm
//
// plaintextflow and hotpathalloc are built on a whole-module interprocedural
// dataflow engine (call graph + per-function summaries); see DESIGN.md.
//
// Usage:
//
//	go run ./cmd/overlint [-json] [packages]
//
// Packages default to ./... . The exit status is 0 when the tree is clean,
// 1 when findings are reported, and 2 when loading or analysis fails.
// Findings can be suppressed, with a recorded justification, by
// "//overlint:allow <analyzer> -- <reason>" on or directly above the
// offending line. A directive with no reason, or one naming an analyzer
// that ran and found nothing there, is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"

	"overshadow/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: overlint [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "overlint:", err)
		os.Exit(2)
	}
	findings, err := lint.Run(os.Stdout, cwd, lint.Options{
		Patterns: patterns,
		JSON:     *jsonOut,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "overlint:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "overlint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}
