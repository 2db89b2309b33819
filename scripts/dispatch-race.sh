#!/usr/bin/env sh
# Runs the batcher's group-commit, stage-overlap and stop-drain tests
# twenty times under the race detector at GOMAXPROCS 1 and 2. They hang on goroutine
# interleavings one pass may not meet, and one processor is where a
# send hands the idle dispatcher the processor before other callers
# enqueue. The -run pattern must match every test it names, so a
# deleted or renamed test cannot leave this step passing.
set -eu

cd "$(dirname "$0")/.."

tests='TestBatchCoalesce TestCertificateOverlapsNextSweep TestDispatchIdleSweepsAtOnce TestDispatchIdleTakesBacklog TestStopDrainsWithoutHolding'
pattern="^($(echo $tests | tr ' ' '|'))\$"
named=$(echo $tests | wc -w)
listed=$(go test -list "$pattern" ./internal/serve/ | grep -c '^Test' || true)
if [ "$listed" -ne "$named" ]; then
    echo "dispatch-race: -run pattern names $named tests but matches $listed" >&2
    exit 1
fi
go test -race -count=20 -cpu 1,2 -run "$pattern" ./internal/serve/
