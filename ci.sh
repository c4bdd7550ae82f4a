#!/bin/sh
# Tier-1 verification gate.  Run before every commit:
#
#   ./ci.sh
#
# Checks, in order: formatting, vet, build, that no non-test code imports
# internal/budget (the budget tables' test support), the full test suite under
# the race detector (the concurrency gate for what is concurrent — the
# experiment suite's jobs, telemetry and the observability server — which also
# runs the root package's invariant harness, invariant_test.go: one job gives
# one result on either engine, with any observer, on a new, pooled or reset
# chip, at GOMAXPROCS 1 or N and at the suite's -jobs 1 or 8; and
# TestModuleCleanliness, the internal/lint analyzers over the whole
# module), the summary line of
# TestPaperShape (how many of the paper's claims land inside the paper's
# band at kernel scales 1 and 2, so a change that moves a paper shape
# shows in the log), a live smoke that curls
# /metrics and /critpath off a serving tflexexp, a flight-recorder smoke
# (tflexsim -flight on a fuzz seed must write a dump that -flight-print
# renders with its ring header and at least one commit record, and a
# multiprogrammed run must write its observer files),
# a tflexexp artefact smoke (-progress, -metrics and -chrome-trace on
# fig5: one progress line per simulated job, 26 job keys, one named track
# per worker; -progress and -metrics on fig9x: 72 jobs, every key a tflex
# run carrying its critpath histograms, none a critpath row), a
# recomposition smoke (examples/recompose: the thread resumed on new
# cores reaches the same sum, and its phase counts only its own cycles),
# and a one-iteration smoke of every
# benchmark so the bench harness cannot rot unnoticed.
#
#   ./ci.sh bench [clpbench flags]
#
# measures, then gates: cmd/clpbench (the repository's one benchmark,
# what BENCHMARK.json runs) with the given flags, e.g.
# `./ci.sh bench -workload observed -trace 1`, whose reports (-out) are
# appended as one JSON line — short commit, dirty flag, UTC date and the
# reports with their host block, metrics, timings and exact counters —
# to the append-only BENCH_history.jsonl, which no gate reads; followed
# by the budget table (DESIGN.md, "One budget table"): the fourteen budget
# tests, each a table of rows that internal/budget measures in isolated
# windows, printed one line per row (owner | row | layer | quantity |
# measured | bound | factor), and then run again under GOGC=5, so a row
# that depends on when the collector runs fails here before it flakes in
# the tier-1 gate, and a third time under -race, where a byte row holds
# its bound plus 16 B an allocation (DESIGN.md); and the record sizes the
# budgets rest on
# (TestEventRecordSize, TestNodeSize, TestInstStateSize, TestCritRecordSize).
# No wall-time ratio is compared to a threshold: wall time is judged
# across commits by the pipeline that runs BENCHMARK.json, under the
# bounds that file states.
#
#   ./ci.sh lint
#
# runs only the static-analysis stage (a few seconds): go vet, then
# TestModuleCleanliness, the determinism and event-discipline (no event
# scheduled at a cycle computed by subtracting from the current one)
# analyzers over the whole module, which prints each finding as
# file:line:col.
#
#   ./ci.sh loc
#
# prints the non-test, non-testdata Go line count of every package and of
# the module — the number a simplicity PR quotes before and after.
# internal/budget, which only tests import, prints on a line of its own
# ("test support") and counts in neither module total.
#
#   ./ci.sh fuzz [fuzztime]
#
# runs the four native fuzz targets for fuzztime each: FuzzDifferential
# (seeded random EDGE programs through every executor behind the
# arch.Executor contract — functional, conv-trace, optimized + reference
# timing on 1/2/4 cores — shrinking any divergence to a minimal .tfa
# reproducer), then FuzzParseTFA, FuzzAssemble and FuzzParseDump (hostile
# bytes into the three readers must give a result or an error, never a
# panic).  Defaults
# to 30s; pass a Go duration to run longer.  The bounded 200-seed corpus
# pass and every committed crasher under testdata/fuzz run in the
# default gate.
set -eu
cd "$(dirname "$0")"

if [ "${1:-}" = "lint" ]; then
    echo "== go vet =="
    go vet ./...
    echo "== analyzers (TestModuleCleanliness) =="
    go test -count=1 -run TestModuleCleanliness ./internal/lint
    echo "lint: clean"
    exit 0
fi

if [ "${1:-}" = "loc" ]; then
    find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.bench_build/*' -exec wc -l {} + |
        awk '$2 != "total" {
                 d = $2; sub(/\/[^\/]*$/, "", d)
                 if (d == "./internal/budget") { support += $1; next }
                 n[d] += $1; all += $1
                 if (d != "./cmd/clpbench") rest += $1
             }
             END {
                 for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
                 close("sort -k2")
                 printf "%7d ./internal/budget (test support)\n", support
                 printf "%7d module\n%7d module outside cmd/clpbench\n", all, rest
             }'
    exit 0
fi

if [ "${1:-}" = "fuzz" ]; then
    fuzztime="${2:-30s}"
    for target in internal/fuzz:FuzzDifferential internal/fuzz:FuzzParseTFA internal/asm:FuzzAssemble internal/flight:FuzzParseDump; do
        echo "== ${target#*:} (${fuzztime}) =="
        go test -run=NONE -fuzz="^${target#*:}\$" -fuzztime="$fuzztime" "./${target%%:*}"
    done
    exit 0
fi

if [ "${1:-}" = "bench" ]; then
    shift
    echo "== benchmark (cmd/clpbench) =="
    benchdir=$(mktemp -d)
    go run ./cmd/clpbench -out "$benchdir/report.json" "$@"
    if [ -s "$benchdir/report.json" ]; then
        dirty=false
        [ -z "$(git status --porcelain -- . ':(exclude)BENCH_history.jsonl' 2>/dev/null)" ] || dirty=true
        # One line per run: the reports are JSON over several lines, and a
        # JSON string holds no raw newline, so dropping each line's
        # indentation and the newlines keeps every value as it was.
        printf '{"commit":"%s","dirty":%s,"date":"%s","reports":%s}\n' \
            "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" "$dirty" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
            "$(sed 's/^ *//' "$benchdir/report.json" | tr -d '\n')" >>BENCH_history.jsonl
        echo "appended this run to BENCH_history.jsonl"
    else
        echo "no report written (an -out flag of your own takes precedence): BENCH_history.jsonl not appended"
    fi
    rm -rf "$benchdir"
    budgets='TestRunKernelReuseBudget|TestSteadyStateAllocsPerBlock|TestReferenceBytesPerBlock|TestObservedAllocsPerBlock|TestObservedBytesPerBlock|TestEventsPerBlock|TestChipSetupBudget|TestChipReuseBudget|TestWarmChipJobBudget|TestKernelBuildBudget|TestCheckSeedAllocs|TestFunctionalAllocsPerBlock|TestSuiteJobBudget|TestRingFootprint'
    sizes='TestEventRecordSize|TestNodeSize|TestInstStateSize|TestCritRecordSize'
    for build in GOGC=100 GOGC=5 -race; do
        gogc=100 race=""
        case "$build" in GOGC=*) gogc=${build#GOGC=} ;; *) race=$build ;; esac
        echo "== budget table, $build (owner | row | layer | quantity | measured | bound | factor) =="
        table=$(GOGC=$gogc go test $race -count=1 -v -run "^($budgets|$sizes)\$" . ./internal/sim ./internal/evq ./internal/noc ./internal/critpath ./internal/exec ./internal/kernels ./internal/experiments ./internal/fuzz) ||
            { echo "$table" >&2; exit 1; }
        echo "$table" | grep -o 'budget: .*' | sed 's/^budget: //'
    done
    exit 0
fi

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== internal/budget is imported by tests only =="
if go list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -E ': (.* )?github.com/clp-sim/tflex/internal/budget( |$)'; then echo "FAIL: non-test code imports internal/budget" >&2; exit 1; fi

echo "== go test -race =="
go test -race ./...

echo "== paper table (TestPaperShape) =="
paper=$(go test -count=1 -v -run '^TestPaperShape$' ./internal/experiments) || { echo "$paper" >&2; exit 1; }
echo "$paper" | grep -o 'paper table: .*'

echo "== observability live smoke (tflexexp -serve) =="
obsbin=$(mktemp -d)/tflexexp
go build -o "$obsbin" ./cmd/tflexexp
# The server lives only while the sweep runs, so the sweep must outlast
# the first polls: the whole evaluation on one worker takes seconds,
# fig9x alone a quarter of one.
"$obsbin" -exp all -scale 2 -jobs 1 -serve 127.0.0.1:18573 >/dev/null 2>&1 &
obspid=$!
fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf "http://127.0.0.1:18573$1"
    else
        wget -qO- "http://127.0.0.1:18573$1"
    fi
}
ok=""
for _ in $(seq 1 50); do
    if metrics=$(fetch /metrics) && critjson=$(fetch /critpath); then
        ok=1
        break
    fi
    sleep 0.2
done
if [ -z "$ok" ]; then
    echo "FAIL: observability server never answered /metrics + /critpath" >&2
    kill "$obspid" 2>/dev/null || true
    exit 1
fi
case "$critjson" in
    *'"blocks"'*) ;;
    *) echo "FAIL: /critpath response lacks a blocks field: $critjson" >&2
       kill "$obspid" 2>/dev/null || true
       exit 1 ;;
esac
echo "live /metrics (${#metrics} bytes) and /critpath OK"
wait "$obspid" || true
rm -rf "$(dirname "$obsbin")"

echo "== flight recorder smoke (tflexsim -flight on a fuzz seed) =="
flightdir=$(mktemp -d)
go run ./cmd/tflexsim -fuzz-seed 7 -flight "$flightdir/seed7.flight.json" >/dev/null
go run ./cmd/tflexsim -flight-print "$flightdir/seed7.flight.json" >"$flightdir/seed7.txt"
grep -q '^ring records=[1-9]' "$flightdir/seed7.txt" && grep -Eq '^  @[0-9]+ +commit ' "$flightdir/seed7.txt" ||
    { echo "FAIL: -flight-print rendered no ring header or no commit record:" >&2; head -5 "$flightdir/seed7.txt" >&2; exit 1; }
go run ./cmd/tflexsim -kernel conv -cores 8 -procs 2 -critpath -chrome-trace "$flightdir/c.json" -metrics "$flightdir/m.json" >/dev/null
test -s "$flightdir/c.json" -a -s "$flightdir/m.json" || { echo "FAIL: -procs 2 wrote no Chrome trace or metrics file" >&2; exit 1; }
rm -rf "$flightdir"

echo "== tflexexp artefact smoke (-progress, -metrics and -chrome-trace on fig5; fig9x) =="
expdir=$(mktemp -d)
go run ./cmd/tflexexp -exp fig5 -scale 1 -jobs 2 -progress -metrics "$expdir/m.json" -chrome-trace "$expdir/t.json" >/dev/null 2>"$expdir/stderr"
test -s "$expdir/m.json" -a -s "$expdir/t.json" || { echo "FAIL: tflexexp wrote no metrics or Chrome trace file" >&2; exit 1; }
# One progress line per simulated job (26 core2 + 26 trips), one snapshot
# per chip job (the 26 trips runs; core2 has no registry), one named
# track per worker however many batches ran.
progress=$(grep -c '^\[' "$expdir/stderr")
jobkeys=$(grep -c '^  "' "$expdir/m.json")
tracks=$(grep -o '"thread_name"' "$expdir/t.json" | wc -l)
if [ "$progress" -ne 52 ] || [ "$jobkeys" -ne 26 ] || [ "$tracks" -ne 2 ]; then
    echo "FAIL: tflexexp -exp fig5 -jobs 2 printed $progress progress lines (want 52), exported $jobkeys job keys (want 26) and $tracks thread_name records (want 2)" >&2
    exit 1
fi
# Figure 9x reads the tflex sweep: 12 hand-optimized kernels x 6 sizes,
# each a tflex job that recorded attribution.
go run ./cmd/tflexexp -exp fig9x -scale 1 -progress -metrics "$expdir/m9x.json" >/dev/null 2>"$expdir/stderr9x"
progress=$(grep -c '^\[' "$expdir/stderr9x")
jobkeys=$(grep -c '^  "' "$expdir/m9x.json")
tflexkeys=$(grep '^  "' "$expdir/m9x.json" | grep -c '/tflex-' || true)
critkeys=$(grep -c '/critpath-' "$expdir/m9x.json" || true)
commits=$(grep -c '"proc0.critpath.commit.count"' "$expdir/m9x.json" || true)
if [ "$progress" -ne 72 ] || [ "$jobkeys" -ne 72 ] || [ "$tflexkeys" -ne 72 ] || [ "$critkeys" -ne 0 ] || [ "$commits" -ne 72 ]; then
    echo "FAIL: tflexexp -exp fig9x printed $progress progress lines and exported $jobkeys job keys, $tflexkeys of them tflex, $critkeys critpath and $commits with proc0.critpath.commit.count (want 72, 72, 72, 0, 72)" >&2
    exit 1
fi
rm -rf "$expdir"

echo "== recomposition walk-through (examples/recompose) =="
recomp=$(go run ./examples/recompose)
# The resumed thread must reach the same sum, and phase 2 must count its
# own leg: fewer cycles than the chip clock, which ran phase 1 and phase 2.
echo "$recomp" | grep -q '^results agree' &&
    echo "$recomp" | awk '/^phase 1 /{c1 = $(NF-1)} /^phase 2 /{c2 = $(NF-4); clock = $NF + 0}
                          END {exit !(c1 > 0 && c2 > 0 && c2 < clock && c1 + c2 <= clock)}' ||
    { echo "FAIL: examples/recompose disagrees or counts phase 2 from cycle 0:" >&2; echo "$recomp" >&2; exit 1; }
echo "$recomp" | grep '^phase 2 '

echo "== benchmark smoke (1 iteration each) =="
go test -run '^$' -bench . -benchtime 1x ./...

echo "ci: all checks passed"
