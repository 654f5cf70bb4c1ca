#!/usr/bin/env bash
# CI gate: vet, build, full test suite, then a race-detector pass over the
# concurrency-heavy packages. ModeAligned's deliberate benign races are
# excluded from race builds via build tags, so -race must stay clean.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed:" "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go vet (386, arm64: per-worker layouts, cut arithmetic) =="
# Ctx's pad is computed from unsafe.Sizeof, and the per-worker layout tests
# assert with Sizeof/Offsetof: both must stay well-formed where words are
# 4 bytes and on the other 64-bit port. sched.Cuts multiplies |S| by deg(S),
# which overflows a 32-bit int, so its tests also run where int is 32 bits.
# Ctx also carries every scheduler's access counters, NoSync's included, so
# its layout and zero-allocation tests run there too.
for arch in 386 arm64; do
    GOARCH=$arch go vet ./internal/core/ ./internal/frontier/ ./internal/hybrid/ ./internal/sched/
done
GOARCH=386 go test -count=1 -run Cuts ./internal/sched/
GOARCH=386 go test -count=1 -run 'PerWorkerLayout|DoesNotAllocate' ./internal/core/

echo "== ndlint (go vet -vettool) =="
# The eligibility linter must stay clean over the whole tree: findings are
# either fixed or carry a justified //ndlint:ignore pragma.
ndlint_bin=$(mktemp -t ndlint.XXXXXX)
go build -o "$ndlint_bin" ./cmd/ndlint
go vet -vettool="$ndlint_bin" ./...
rm -f "$ndlint_bin"

echo "== go build =="
go build ./...

echo "== no test code in the binaries =="
# Test helpers belong in _test.go files: a non-test file that imports
# "testing" links it into every command that reaches the package.
if go list -deps ./cmd/... . | grep -qx testing; then
    echo "package testing is linked into ./cmd/... or the facade:" >&2
    go list -f '{{.ImportPath}}: {{join .Imports " "}}' -deps ./cmd/... . | grep -w testing >&2
    exit 1
fi

echo "== go test =="
go test ./...

echo "== RMAT split (GOMAXPROCS 1 and 8) =="
# RMAT draws its edges in GOMAXPROCS chunks, each on a generator jumped
# ahead with Advance; the golden digests must hold whatever the split, so
# no core count can change a benchmark graph.
for procs in 1 8; do
    GOMAXPROCS=$procs go test -count=1 -run 'RMATGolden|Advance' ./internal/gen/ ./internal/rng/
done

echo "== go test -shuffle=on (order-independence) =="
# Shuffled execution order flushes out tests that depend on state leaked by
# an earlier test in the same package.
go test -shuffle=on -count=1 ./...

echo "== go test -race (concurrency-heavy packages, short) =="
# internal/obs covers the lock-free delay clocks and striped residual
# estimator under concurrent Emit/WriteMetrics/Handler;
# internal/edgedata and internal/algorithms race the bulk gather/scatter
# loops in lock and atomic modes (ModeAligned is compiled out of race
# builds).
go test -race -short ./internal/core/ ./internal/fault/ ./internal/trace/ ./internal/netdist/ ./internal/obs/ ./internal/hybrid/ ./internal/frontier/ ./internal/sched/ ./internal/eligibility/ ./internal/algorithms/ ./internal/edgedata/

echo "== flake gate (NoSync scheduler, -race -count=20, GOMAXPROCS 1/2/8) =="
# NoSync's termination detection, work stealing and the lock-free
# telemetry paths are schedule-sensitive: a test that passes once proves
# little. Twenty repetitions under the race detector, with fewer, as many
# and more runnable threads than the tests' worker counts, must all pass:
# every NoSync test of the core engine, the NoSync recovery rows of the
# fault suite (heals posted on the faulting worker's deque mid-run), the
# benchmark shim's nosync and async-chan replays, and all of sched,
# frontier, obs and hybrid (whose direction choice reads the frontier's
# barrier-time counts).
for procs in 1 2 8; do
    GOMAXPROCS=$procs go test -race -count=20 -run NoSync ./internal/core/
    GOMAXPROCS=$procs go test -race -count=20 -run NoSync ./internal/fault/
    GOMAXPROCS=$procs go test -race -count=20 -run '^Test(NoSync|Async)Shim' .
    GOMAXPROCS=$procs go test -race -count=20 ./internal/sched/ ./internal/frontier/ ./internal/obs/ ./internal/hybrid/
done

echo "== flake gate (run lifecycle, every tier, -race -count=20, GOMAXPROCS 1/2/8) =="
# Cancellation, the stall watchdog, panic recovery and the partial-result
# contract of the one run lifecycle (core.Lifecycle) across the barrier
# schedulers, NoSync and netdist: the lifecycle table in
# internal/core, netdist's TestRunLifecycle, plus the hybrid panic test.
for procs in 1 2 8; do
    GOMAXPROCS=$procs go test -race -count=20 -run Lifecycle ./internal/core/ ./internal/hybrid/ ./internal/netdist/
done

echo "== flake gate (netdist quiescence, -race -count=5, GOMAXPROCS 1/2/8) =="
# Workers initialise in parallel, sweeps start on the workers' idle notices,
# and the confirming quiescence sweep goes out as soon as the first all-idle
# sweep returns, so termination detection depends on goroutine scheduling:
# the end-to-end runs, lossy links, a healed partition and a
# killed-and-restored worker must all reach the exact fixed point every time.
for procs in 1 2 8; do
    GOMAXPROCS=$procs go test -race -count=5 -run 'TestDist(WCC|BFS|SSSP|SingleWorker|FaultyLinks|PartitionHeal|KillRestoreRepair)$' ./internal/netdist/
done

echo "== go test -race (cross-engine differential, lock + atomic modes, -count=3, GOMAXPROCS 1/2/8) =="
# The differential suite pins every executor to the sequential DE fixed
# point using ModeLocked/ModeAtomic only (ModeAligned is compiled out of
# race builds), so it doubles as the race gate for the full engine grid.
# The barrier schedulers hand S_{n+1} from worker to worker through the
# frontier's per-worker sets, folded at the barrier: that hand-off is
# exercised with fewer, as many and more runnable threads than workers.
for procs in 1 2 8; do
    GOMAXPROCS=$procs go test -race -run 'TestCrossEngine' -count=3 .
done

echo "== chaos smoke (netdist: SIGKILL + 30% drop window) =="
# Real worker processes via ExecLauncher: one worker SIGKILLed mid-run, a
# 30% frame-drop window opened and closed, and the result must still be
# byte-identical to the sequential reference after supervised recovery.
NDGRAPH_CHAOS=1 go test -run '^TestChaosSmoke$' -count=1 -v ./internal/netdist/ | grep -E 'chaos smoke|PASS|FAIL|ok '

echo "== fuzz smoke (\${FUZZTIME:-30s} per target) =="
# Each native fuzz target gets a short randomized run on top of its
# checked-in seed corpus; FUZZTIME=5s locally for a quicker gate.
FUZZTIME=${FUZZTIME:-30s}
for target in FuzzLoadEdgeList FuzzLoadMatrixMarket FuzzReadBinary; do
    go test -run "^${target}\$" -fuzz "^${target}\$" -fuzztime "$FUZZTIME" ./internal/loader/
done
go test -run '^FuzzCheckpointRestore$' -fuzz '^FuzzCheckpointRestore$' -fuzztime "$FUZZTIME" ./internal/core/
go test -run '^FuzzCheckpointDecode$' -fuzz '^FuzzCheckpointDecode$' -fuzztime "$FUZZTIME" ./internal/fsafe/

echo "== ingest benchmark smoke (-benchtime 1x) =="
# One iteration of each load/build benchmark, so the profiling entry points
# of the ingest layer cannot rot; timings from here mean nothing.
go test -run '^$' -bench 'ReadBinary|WriteBinary|ReadEdgeList|Build' -benchtime 1x ./internal/loader/ ./internal/graph/

echo "== examples (each run once) =="
# Every example checks its own results and exits non-zero on a mismatch;
# building them is not enough to know they still agree.
for d in examples/*/; do
    go run "./$d" >/dev/null
done

echo "== /statusz smoke (live progress plane) =="
# Polls /statusz WHILE a work-stealing PageRank is running and fails unless
# the endpoint serves well-formed JSON showing real mid-run progress (plus
# an HTML rendering). Guards the progress plane against becoming a
# post-mortem-only viewer.
go run ./scripts/statuszsmoke/

echo "== experiment smoke (every ndbench study) =="
# One tiny-scale pass of the whole study registry through the CLI and its
# table writer (~10 s); timings from here mean nothing.
go run ./cmd/ndbench -scale 2000 -threads 1,2 -runs 2 -eps 1e-1 >/dev/null

echo "== bench module (vet + smoke test) =="
# bench/ is a nested module outside ./..., built against the facade and
# internal packages; its test is the benchmark's 20x-smaller smoke run, so
# an API change that breaks the benchmark fails here, not in the driver.
(cd bench && go vet ./... && go test ./...)

echo "CI OK"
