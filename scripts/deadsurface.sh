#!/usr/bin/env bash
# Dead-surface audit: which code does nothing the system is used for
# ever run? Builds graphbench, datagen and the claim benchmark
# (benchmark/) with coverage instrumentation over every repro package,
# drives them the way their users and the benchmark do, and writes
# DEADSURFACE.md at the repository root:
#
#   1. which functions the drive reaches (go tool covdata func), with
#      the functions neither the drive nor the tests reach;
#   2. exported names that no non-test file references (identifier
#      grep, approximate);
#   3. functions `go test -coverpkg=repro/... ./...` reaches but the
#      drive leaves at 0 %.
#
# It records reached or unreached, never a percentage: how much of a
# concurrent path runs moves between runs, so two regenerations on one
# commit write the same file.
#
# Every 0 % entry carries the tag and reason scripts/deadsurface.verdicts
# gives it: oracle (a reference tests compare against; never delete),
# keep, or later. An entry without one is listed as untriaged.
#
# The drive: every graphbench verb the usage text lists, the batch ones
# at -scale 40 (the script fails when a verb has no drive line),
# datagen in both formats, experiments/smoke.json, every benchmark
# workload with -smoke at -trace 0 and 1, and `graphbench serve` over
# loopback with one request per route of internal/serve/http.go, each
# of which must answer 200 (a route with no request fails the script).
#
# Usage: bash scripts/deadsurface.sh
#
# Binaries, coverage counters and command output go to a temporary
# directory removed on exit; DEADSURFACE.md is the only file written
# in the checkout. Takes a few minutes; the go test pass dominates.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
tmp="$(mktemp -d)"
serve_pid=""
cleanup() {
    if [ -n "$serve_pid" ]; then kill "$serve_pid" 2>/dev/null || true; fi
    rm -rf "$tmp"
}
trap cleanup EXIT

die() {
    echo "deadsurface: $*" >&2
    exit 1
}

# The non-test sources section 2 reads, the main module's and the
# benchmark's, snapshotted beside the build: the report names methods
# from the tree that was built, whatever is edited during the run.
git ls-files '*.go' | grep -v '_test\.go$' >"$tmp/sources"
mkdir -p "$tmp/src"
tar -cf - -T "$tmp/sources" | tar -xf - -C "$tmp/src"

echo "== build with -cover -coverpkg=repro/..." >&2
go build -cover -coverpkg=repro/... -o "$tmp/graphbench" ./cmd/graphbench
go build -cover -coverpkg=repro/... -o "$tmp/datagen" ./cmd/datagen
go build -C benchmark -cover -coverpkg=repro/... -o "$tmp/benchmark" .
mkdir -p "$tmp/cov"
export GOCOVERDIR="$tmp/cov"

# run <command...>: one drive line; its output is shown only on failure.
run() {
    echo "-- $*" >&2
    "$@" >"$tmp/out.log" 2>&1 || {
        cat "$tmp/out.log" >&2
        die "drive line failed: $*"
    }
}

# drive <verb> <graphbench arguments...>: one graphbench command line
# that runs <verb>.
driven=" "
drive() {
    local verb=$1
    shift
    case " $* " in *" $verb "*) ;; *) die "drive line for $verb does not run it: $*" ;; esac
    driven="$driven$verb "
    run "$tmp/graphbench" "$@"
}

echo "== graphbench verbs" >&2
verbs=$("$tmp/graphbench" 2>&1 >/dev/null | awk '/^commands:/ { on = 1; next } on && /^$/ { exit } on && /^  [^ ]/ { print $1 }' || true)
[ -n "$verbs" ] || die "graphbench usage lists no commands"
drive table -scale 40 table 6
drive table -scale 40 -csv table 2
drive figure -scale 40 figure 11 KGS
drive all -scale 40 all
drive findings -scale 40 findings
drive run -scale 40 run Giraph BFS DotaLeague
drive explore -scale 40 explore Giraph
drive loadtest -scale 40 loadtest Giraph BFS KGS
drive predict -scale 40 predict Giraph STATS WikiTalk
for engine in pregel mapreduce yarn dataflow gas; do
    drive chaos -scale 40 -nodes 4 chaos "$engine" BFS KGS
done
drive chaos -scale 40 -nodes 4 -partitioner edgecut -shards 4 chaos pregel CONN KGS
drive chaos -scale 40 -nodes 4 chaos gas EVO KGS
drive curves -scale 40 curves Giraph
drive curves -scale 40 curves Giraph measured
drive partition-quality -scale 40 -shards 8 partition-quality KGS
drive partition-study -scale 40 partition-study
drive experiment -trace "$tmp/trace.json" -metrics "$tmp/metrics.json" \
    experiment experiments/smoke.json -out "$tmp/smoke"
[ -s "$tmp/trace.json" ] && [ -s "$tmp/metrics.json" ] || die "experiment wrote no -trace or -metrics file"
drive experiment-diff experiment-diff "$tmp/smoke/results.json" "$tmp/smoke/results.json"
drive stream stream -mix 90/10 -users 16 -ops 16 -batches 16 -batch-size 8
drive stream stream -chaos -chaos-seeds 1 -batches 16 -batch-size 8

echo "== graphbench serve over loopback" >&2
"$tmp/graphbench" -metrics "$tmp/serve-metrics.json" serve -addr localhost:0 2>"$tmp/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 600); do
    addr=$(sed -n 's|.*listening on http://||p' "$tmp/serve.log")
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || die "serve exited before listening: $(cat "$tmp/serve.log")"
    sleep 0.1
done
[ -n "$addr" ] || die "serve is not listening after 60 s"
driven="${driven}serve "
asked=""
# request <method> <path> [body]: one request that must answer 200.
request() {
    local code body=()
    [ $# -lt 3 ] || body=(-d "$3")
    code=$(curl -s -o "$tmp/answer" -w '%{http_code}' -X "$1" "${body[@]}" "http://$addr$2")
    [ "$code" = 200 ] || die "$1 $2 answered $code, want 200: $(cat "$tmp/answer")"
    asked="$asked$1 ${2%%\?*}"$'\n'
}
request POST /query/bfs '{"dataset":"DotaLeague","src":7,"target":23}'
request POST /query/component '{"dataset":"DotaLeague","vertex":7}'
request POST /mutate '{"dataset":"DotaLeague","seq":1,"ops":[{"src":7,"dst":23}]}'
request POST /compact '{"dataset":"DotaLeague"}'
request GET '/stats?dataset=DotaLeague'
request GET /datasets
request GET /healthz
request GET /metricz
routes=$(sed -n 's|.*mux.HandleFunc("\([A-Z]*\) \([^"]*\)".*|\1 \2|p' internal/serve/http.go)
[ -n "$routes" ] || die "found no routes in internal/serve/http.go"
while read -r route; do
    grep -qxF "$route" <<<"$asked" || die "serve route $route has no request"
done <<<"$routes"
kill -TERM "$serve_pid"
wait "$serve_pid" || die "serve did not exit 0 after SIGTERM"
serve_pid=""

for verb in $verbs; do
    case "$driven" in *" $verb "*) ;; *) die "graphbench verb $verb has no drive line" ;; esac
done

echo "== datagen, both formats" >&2
run "$tmp/datagen" -scale 40 -out "$tmp/data" -format text
run "$tmp/datagen" -scale 40 -out "$tmp/data" -format binary -cache "$tmp/cache"

echo "== benchmark workloads, -smoke at -trace 0 and 1" >&2
run "$tmp/benchmark" -workload all -smoke

echo "== go test -coverpkg=repro/... ./..." >&2
env -u GOCOVERDIR go test -coverpkg=repro/... -coverprofile="$tmp/test.out" ./... >"$tmp/test.log" 2>&1 || {
    cat "$tmp/test.log" >&2
    die "go test failed"
}

# Coverage tables of the main module: "<file>:<line>: <name> <percent>"
# per function.
mine='$1 ~ /^repro\/(internal|cmd)\//'
go tool covdata func -i="$tmp/cov" | awk "$mine" >"$tmp/drive.func"
go tool cover -func="$tmp/test.out" | awk "$mine" >"$tmp/test.func"

echo "== writing DEADSURFACE.md" >&2
awk -v verdicts=scripts/deadsurface.verdicts -v testfunc="$tmp/test.func" \
    -v sources="$tmp/sources" -v snapshot="$tmp/src" \
    -f scripts/deadsurface.awk "$tmp/drive.func" >DEADSURFACE.md
echo "deadsurface: wrote DEADSURFACE.md" >&2
