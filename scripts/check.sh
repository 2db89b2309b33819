#!/usr/bin/env sh
# Repo-wide verification: vet, build, full tests, one pass of every
# ablation benchmark, and a race-detector pass over the four engines'
# reused-buffer hot paths, the partition helpers (key sort, splitters)
# the generic engines share, the algorithm programs that share the
# pooled STATS kernel, and the oracle table's short rows.
#
#   --chaos      additionally run one short seeded chaos smoke per engine
#                (fault-injected run must match the fault-free run).
#   --partition  additionally run the partition matrix smoke: chaos under
#                an explicit 4-shard placement for each strategy x engine
#                pair, plus the quality table.
#   --gap        additionally run the GAP kernel equivalence tests under
#                the race detector and the full root oracle table.
#   --serve      additionally run the serving gate: batch equivalence and
#                handler tests under the race detector, the group-commit
#                and stop-drain tests twenty times over at GOMAXPROCS 1
#                and 2 (scripts/dispatch-race.sh), a short
#                200-user read-only fleet smoke, and a SIGTERM drain of
#                the daemon (exit 0).
#   --experiment additionally mirror CI's experiment gate locally: the
#                experiment package tests, the one-cell cold-timeout /
#                warm-ok run the nightly paper-core job depends on, plus
#                a full smoke-spec run (every cell output-validated,
#                CV-gated) into a throwaway bundle directory.
#   --stream     additionally mirror CI's streaming gate: delta log and
#                incremental-vs-full equivalence under the race
#                detector, the every-epoch isolation test under it and
#                the per-batch allocation pin without it, 30 s of
#                FuzzDeltaLog, the read/write-mix sweep, and the 3-seed
#                chaos leg (byte-identical MATCH required throughout).
set -eu

cd "$(dirname "$0")/.."

run_chaos=0
run_partition=0
run_gap=0
run_serve=0
run_experiment=0
run_stream=0
for arg in "$@"; do
    case "$arg" in
    --chaos) run_chaos=1 ;;
    --partition) run_partition=1 ;;
    --gap) run_gap=1 ;;
    --serve) run_serve=1 ;;
    --experiment) run_experiment=1 ;;
    --stream) run_stream=1 ;;
    *)
        echo "usage: $0 [--chaos] [--partition] [--gap] [--serve] [--experiment] [--stream]" >&2
        exit 2
        ;;
    esac
done

echo "== go vet ./..."
go vet ./...

# Optional linters: used when installed, skipped with a warning when
# not — CI installs them, local checkouts need not.
if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck ./..."
    staticcheck ./...
else
    echo "== staticcheck not installed, skipping" >&2
fi

if command -v govulncheck >/dev/null 2>&1; then
    echo "== govulncheck ./..."
    govulncheck ./...
else
    echo "== govulncheck not installed, skipping" >&2
fi

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== ablation benchmarks, once each"
go test -run '^$' -bench Ablation -benchtime 1x .

# The claim benchmark is a nested module importing repro/internal/...;
# ./... does not descend into it.
echo "== benchmark module (vet + test)"
(cd benchmark && go vet ./... && go test ./...)

echo "== go test -race -short (engines + algorithm programs + partition + ingest + obs)"
# pregel and pregelalgo run in the GOMAXPROCS 1, 2 and 4 step below.
go test -race -short \
    ./internal/gas/... \
    ./internal/mapreduce/... \
    ./internal/dataflow/... \
    ./internal/gasalgo/... \
    ./internal/mralgo/... \
    ./internal/pactalgo/... \
    ./internal/dbalgo/... \
    ./internal/partition/... \
    ./internal/graph/... \
    ./internal/obs/...

echo "== fork-join primitive (-race, GOMAXPROCS 1, 2 and 4)"
go test -race -cpu 1,2,4 ./internal/par/

echo "== pregel delivery order (-race, GOMAXPROCS 1, 2 and 4)"
# One flat inbox per shard, filled for all shards in parallel.
go test -race -cpu 1,2,4 ./internal/pregel/ ./internal/pregelalgo/

echo "== STATS reference (-race, GOMAXPROCS 1, 2 and 4)"
# Per-worker triangle credits must give the definition's bits.
go test -race -cpu 1,2,4 -run 'LCC' ./internal/graph/

echo "== CD reference (-race, GOMAXPROCS 1, 2 and 4)"
# Blocked rounds must give the one-vertex-at-a-time loop's labels.
go test -race -cpu 1,2,4 -run 'RefCD' ./internal/algo/

echo "== oracle table, short rows (-race)"
go test -race -short -run '^Test(Oracle|Cross|SSSPEquivalence)' .

echo "== shared STATS/CD kernels (-race; allocation pins without it)"
# The link counter is pooled across the engines' workers. The race
# detector changes allocation: the pins skip themselves under -race.
go test -race -run 'LinkCounter|ChooseLabel|LCC' ./internal/algo/
go test -run '^(TestLinkCounterAllocatesNothing|TestChooseLabelAllocatesNothing|TestRefCDAllocsIndependentOfEdges)$' ./internal/algo/

echo "== GAS engine allocation pins (without -race)"
# Typed values and one reused accumulator per worker: the pins skip
# themselves under -race.
go test -run '^TestIterationAllocCeiling$' ./internal/gas/
go test -run '^TestAllocsIndependentOfEdges$' ./internal/gasalgo/

echo "== generic engine allocation pins (without -race)"
# Typed, pointer-free records and one run's scratch arrays refilled job
# after job: the pins skip themselves under -race.
go test -run '^TestMapEmitBufferReused$' ./internal/mapreduce/
go test -run '^TestWarmConnJobAllocCeiling$' ./internal/mralgo/ ./internal/pactalgo/

echo "== fuzz seed smoke (graph text reader + partitioners + delta log + batch certificate)"
# Run every checked-in fuzz seed (plus any locally grown corpus)
# through the fuzz targets once, without fuzzing for new inputs.
go test -run 'Fuzz' ./internal/graph/ ./internal/partition/ ./internal/evolve/ ./internal/algo/

if [ "$run_chaos" = 1 ]; then
    echo "== chaos smoke (one seeded fault plan per engine)"
    for engine in pregel mapreduce yarn dataflow gas; do
        echo "-- chaos $engine"
        go run ./cmd/graphbench -scale 40 -nodes 4 -fault-seed 1 \
            chaos "$engine" BFS KGS
    done
fi

if [ "$run_partition" = 1 ]; then
    echo "== partition matrix smoke (strategy x engine, 4 shards, faults on)"
    for strategy in hash edgecut vertexcut; do
        for engine in pregel gas; do
            echo "-- partition $strategy/$engine"
            go run ./cmd/graphbench -scale 40 -nodes 4 -fault-seed 1 \
                -partitioner "$strategy" -shards 4 \
                chaos "$engine" BFS KGS
        done
    done
    echo "-- partition quality table"
    go run ./cmd/graphbench -scale 40 -shards 8 partition-quality KGS
fi

if [ "$run_gap" = 1 ]; then
    echo "== gap kernels (equivalence under -race + oracle table)"
    go test -race -run 'BFSDirOpt|RefBFSTree|Validate' ./internal/algo/
    go test -run '^Test(Oracle|Cross|SSSPEquivalence)' .
fi

if [ "$run_serve" = 1 ]; then
    echo "== serving gate (batch equivalence + batch certificate + handlers under -race, group commit x20, fleet smoke, SIGTERM drain)"
    go test -race -run 'BFSMultiSource|ValidateBFSBatch' ./internal/algo/
    go test -race ./internal/serve/
    sh scripts/dispatch-race.sh
    go run ./cmd/graphbench stream -mix 100/0 -users 200 -duration 2s -think 1ms
    # The daemon must drain and exit 0 on SIGTERM (built, not `go run`,
    # so the signal reaches it; `wait` carries its status under set -e).
    bin=$(mktemp -d)
    go build -o "$bin/graphbench" ./cmd/graphbench
    "$bin/graphbench" serve -addr localhost:18090 &
    pid=$!
    for _ in $(seq 1 100); do
        curl -sf localhost:18090/healthz >/dev/null && break
        sleep 0.1
    done
    curl -sf -d '{"dataset":"DotaLeague","src":7,"target":23}' localhost:18090/query/bfs
    kill -TERM "$pid"
    wait "$pid"
    rm -rf "$bin"
fi

if [ "$run_stream" = 1 ]; then
    echo "== streaming gate (delta log + incremental equivalence under -race, sweep + chaos legs)"
    go test -race ./internal/evolve/
    # The race detector changes allocation: the O(touched) pin skips
    # itself under -race and runs by name without it.
    go test -race -run '^TestIsolationAtEveryEpoch$' ./internal/evolve/
    go test -run '^TestSubmitAllocatesWhatItTouches$' ./internal/evolve/
    go test -run '^$' -fuzz FuzzDeltaLog -fuzztime 30s ./internal/evolve/
    go test -race -run 'Incremental' ./internal/algo/
    go test -race -run 'UpdateStream|EvolvedSnapshotKey' ./internal/datagen/
    go test -race -run 'Mutate|Overlay|StaleBatcher|CompactionDivergence|RunStream|StreamLoadSmoke' ./internal/serve/
    go run ./cmd/graphbench stream \
        -users 64 -ops 32 -batches 64 -batch-size 8 -mix 90/10,70/30,50/50
    go run ./cmd/graphbench stream -chaos -chaos-seeds 1,2,3 \
        -batches 64 -batch-size 8
fi

if [ "$run_experiment" = 1 ]; then
    echo "== experiment gate (spec/driver tests + validated smoke run)"
    go test ./internal/experiment/
    go test -count=1 -run 'TestColdTimeoutWarmOKIsValid' ./internal/experiment/
    bundle=$(mktemp -d)
    trap 'rm -rf "$bundle"' EXIT
    go run ./cmd/graphbench experiment experiments/smoke.json -out "$bundle"
    echo "-- bundle written to $bundle:"
    ls "$bundle"
fi

echo "ok"
