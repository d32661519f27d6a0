#!/bin/sh
# check.sh — the full verification gate for this repo (ROADMAP tier-1 plus
# the static-analysis and race gates). Run from anywhere inside the module.
#
#   gofmt      every file formatted
#   go vet     compiler-adjacent checks
#   overlint   domain invariants (determinism, cloakboundary,
#              errnodiscipline, iagoflow, cyclecharge, plaintextflow,
#              hotpathalloc, smpready) — see DESIGN.md; also emits a
#              JSON findings artifact and pins the smpready package-state
#              inventory
#   build      everything compiles
#   tests      full suite, plus the perfbench module's own tests
#   race       race detector over the concurrent packages (guest kernel
#              goroutines + end-to-end scenarios), including the SMP
#              interleaving tests at 4 vCPUs: the check that the scheduler
#              baton serializes all of a machine's state
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== overlint"
go run ./cmd/overlint ./...
# The observability layer and its summarizer are load-bearing for the
# deterministic exports: cover them explicitly even if the ./... expansion
# above ever changes.
go run ./cmd/overlint ./internal/obs ./cmd/overtrace
# Machine-readable findings artifact (empty on a clean tree — the gate above
# already failed otherwise). CI can archive it; reviewers can diff it.
artifact="${OVERLINT_JSON:-overlint-findings.json}"
go run ./cmd/overlint -json ./... > "$artifact"
echo "overlint findings artifact: $artifact"

# smpready inventory pin: a written package-level variable in mach/sim/vmm
# is state shared by every machine in the process. The inventory is pinned
# at zero: any new allow means new shared state, which takes a deliberate,
# reviewed bump of this pin. State owned by one machine is serialized by the
# scheduler baton instead, and the race pass below checks that.
smp_allows=$(grep -rn "overlint:allow smpready" --include="*.go" internal | grep -cv testdata || true)
max_smp_allows=0
if [ "$smp_allows" -gt "$max_smp_allows" ]; then
    echo "smpready inventory grew: $smp_allows allow directives (pinned at $max_smp_allows)" >&2
    echo "new package-level mutable state in mach/sim/vmm belongs on a World, VMM or vCPU" >&2
    exit 1
fi
echo "smpready inventory: $smp_allows/$max_smp_allows allow directives"

echo "== build"
go build ./...

echo "== tests"
go test ./...

echo "== perfbench tests"
# perfbench is its own module. Its tests run every workload at tiny scale
# through the benchmark's correctness checks (every op succeeds, counter
# deltas repeat across episodes, the same seed repeats exactly), so a
# simulator change that would break the benchmark fails here. They write
# no files; the flags keep the run offline.
(cd perfbench && GOFLAGS=-mod=mod GOPROXY=off go test .)

echo "== race pass"
# internal/core includes the SMP suite (TestSMP* boots 2- and 4-vCPU
# machines), and internal/vmm the cross-CPU fault/CTC/shootdown tests, so
# this is also the required race pass over the VCPUs=4 interleaving. The
# harness E17 run covers the adversary suites (scheduler races, tamper
# storms, exhaustion floods) and E16 the migration sweep (capture under
# load, faulted transfer, cross-vCPU restore), both at 1 and 4 vCPUs
# under the detector; TestSweep checks the sweep primitive's result
# collection on a 4-wide pool; internal/migrate adds the codec fuzz and
# end-to-end migration suites.
go test -race ./internal/guestos/... ./internal/core/... ./internal/vmm/ ./internal/migrate/
go test -race ./internal/harness/ -run 'TestE17|TestE16|TestSweep'

echo "== shard determinism"
# Sharding may change wall time only: every row's JSON must be byte-identical
# between a serial and a 4-way sharded run, at each of its seeds. Columns:
# gate | experiments (empty: the whole quick suite) | seeds | extra overbench
# flags | artifact: "profile" if the row also writes the sim-time profile,
# which must match too and render through overprof; "metrics" if it also
# writes the attributed metrics export, which must match too.
#   suite      the quick suite (E1-E14, E16, E17); its serial runs are the
#              VCPUs=1 goldens checked below, so writing metrics must not
#              change a table. It covers E16's migration sweep, whose
#              capture points and transfer faults derive from (seed, probe).
#   vcpus4     the 4-vCPU machine: the seeded interleaving is its only
#              schedule source
#   fault      E13: the injected fault schedule is part of the machine
#   profile    E2: per-world profiles merge additively and every export sorts
#   crash      E14: a (seed, crash point) pair names one exact crashed world
#   adversary  E17: attack schedules derive from (seed, plan name)
#   sweeps     E8 and E16: the two scenario sweeps with no row of their own
#              above; off the golden seeds, their sweep jobs must still
#              collect in item order at any shard count
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/overbench" ./cmd/overbench
while IFS='|' read -r gate exps seeds flags artifact; do
    for s in $seeds; do
        for shards in 1 4; do
            out="$tmpdir/$gate-$s-shards$shards"
            # $flags is split into words on purpose.
            set -- ${exps:+-e "$exps"} $flags
            if [ -n "$artifact" ]; then
                set -- "$@" "-$artifact" "$out.$artifact"
            fi
            if ! "$tmpdir/overbench" -seed "$s" -shards "$shards" -json "$@" > "$out.json" 2> "$out.err"; then
                cat "$out.err" >&2
                exit 1
            fi
        done
        for f in json profile metrics; do
            a="$tmpdir/$gate-$s-shards1.$f"
            b="$tmpdir/$gate-$s-shards4.$f"
            [ -f "$a" ] || continue
            if ! cmp -s "$a" "$b"; then
                echo "$gate determinism broken: seed $s $f differs between -shards 1 and -shards 4" >&2
                diff "$a" "$b" | head -20 >&2
                exit 1
            fi
        done
        if [ "$artifact" = profile ]; then
            go run ./cmd/overprof "$tmpdir/$gate-$s-shards1.profile" > /dev/null
        fi
    done
    echo "$gate: seeds $seeds shard-independent"
done <<'ROWS'
suite||1 42||metrics
vcpus4||1 42|-vcpus 4|
fault|E13|3 11||
profile|E2|3 11||profile
crash|E14|5 9||
adversary|E17|1 23||
sweeps|E8,E16|7 11||
ROWS

echo "== vcpus determinism"
# The N=1 compatibility contract: -vcpus 1 (the default) is the serialized
# machine, so the quick suite's JSON must be byte-identical to the pinned
# goldens in scripts/goldens/ (see its README for the regeneration log), on
# two seeds. The serial suite runs above are exactly that machine. A 4-vCPU
# machine must also be deterministic per seed: a second serial run must
# match the first.
for s in 1 42; do
    if ! cmp -s "scripts/goldens/vcpus1-seed$s.json" "$tmpdir/suite-$s-shards1.json"; then
        echo "VCPUs=1 golden broken: seed $s output differs from scripts/goldens/vcpus1-seed$s.json" >&2
        diff "scripts/goldens/vcpus1-seed$s.json" "$tmpdir/suite-$s-shards1.json" | head -20 >&2
        exit 1
    fi
    "$tmpdir/overbench" -vcpus 4 -seed "$s" -shards 1 -json > "$tmpdir/vcpus4-$s-rerun.json"
    if ! cmp -s "$tmpdir/vcpus4-$s-shards1.json" "$tmpdir/vcpus4-$s-rerun.json"; then
        echo "VCPUs=4 determinism broken: seed $s output differs between two identical runs" >&2
        diff "$tmpdir/vcpus4-$s-shards1.json" "$tmpdir/vcpus4-$s-rerun.json" | head -20 >&2
        exit 1
    fi
done
echo "vcpus goldens: VCPUs=1 byte-identical to the pinned goldens, VCPUs=4 deterministic and shard-independent (seeds 1, 42)"

echo "ALL CHECKS PASSED"
