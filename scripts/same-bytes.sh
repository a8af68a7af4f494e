#!/usr/bin/env bash
# Refactor gate: a build of the checkout must write exactly the bytes a
# build of <rev> writes.
#
#   scripts/same-bytes.sh <rev> [scratch-dir]
#
# Exports <rev> with `git archive` into the scratch directory (a fresh
# temporary one by default), builds the bench bins and the examples there
# and in the checkout, runs the commands below with each build in its own
# directory, and compares byte for byte every file, stdout, stderr and exit
# status the two runs left. The `paper` document is regenerated (its run
# prints every section's table and ends with the what-if agree count), and
# so are the SVGs `figures` draws from the committed one and the
# `trace-report` analyses of it. Exits 1 naming each command whose output
# differs, 2 on a usage or build error. About fifteen minutes warm on two
# cores; the build of <rev> and the two `paper` runs over the scale sweep
# dominate.
set -euo pipefail

rev=${1:?usage: scripts/same-bytes.sh <rev> [scratch-dir]}
root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") || {
    echo "same-bytes: unknown revision $rev" >&2
    exit 2
}
scratch=${2:-$(mktemp -d)}
mkdir -p "$scratch/src"

# name | command line (run from the command's own output directory)
commands=(
    "paper|paper --out ."
    "paper-fig8a|paper --only fig8a --out . --trace-out fig8.trace.json"
    "paper-table1|paper --only table1 --out . --trace-out table1.trace.json"
    "paper-fig9|paper --only fig9 --out . --trace-out fig9.trace.json"
    "figures|figures $root/baselines/BENCH_paper.json"
    "paper-scale|paper --only scale --out . --trace-out scale.trace.json"
    "chaos-seed-17|chaos --proto acuerdo --seed 17 --trace-out chaos.trace.json --metrics-out chaos.metrics.json"
    "chaos-sweep|chaos --proto acuerdo --seeds 25 --max-time-ms 50"
    # Every protocol, so a baseline's timer or batch constant that moved
    # shows here and not only through the paper document.
    "chaos-all|chaos --proto all --seeds 10 --max-time-ms 50"
    "chaos-all-correlated|chaos --proto all --tier correlated --durability durable --seeds 10 --max-time-ms 50"
    # Seed 2 fails, so its flightrec-2.json dump (an Acuerdo ring run with
    # entries cut into segments) is compared too.
    "chaos-ring-8k|chaos --proto acuerdo --dissemination ring --nodes 16 --payload 8192 --seeds 2 --max-time-ms 50"
)
# The deterministic examples (`traced_failover` also writes
# traced_failover.json). `live_cluster` runs on real threads and is left out.
for example in quickstart leader_failover traced_failover replicated_kv slow_follower; do
    commands+=("example-$example|examples/$example")
done
# The three metrics-document reports over the committed document (an
# absolute path, so both builds read the same file).
for mode in bottleneck forensics whatif; do
    commands+=("report-$mode-paper|trace-report --$mode $root/baselines/BENCH_paper.json")
done

build() {
    echo "same-bytes: building $2" >&2
    (cd "$1" && cargo build --release -q -p bench && cargo build --release -q --examples) || {
        echo "same-bytes: build of $2 failed" >&2
        exit 2
    }
}

# run <bin dir> <output dir>
run() {
    local entry name cmd
    for entry in "${commands[@]}"; do
        name=${entry%%|*}
        cmd=${entry#*|}
        mkdir -p "$2/$name"
        # Word splitting of $cmd is intended: the lines above hold no quotes.
        # shellcheck disable=SC2086
        (cd "$2/$name" && "$1"/$cmd > stdout 2> stderr) || echo "exit $?" >> "$2/$name/stdout"
    done
}

git -C "$root" archive "$commit" | tar -x -C "$scratch/src"
CARGO_TARGET_DIR="$scratch/target" build "$scratch/src" "$rev"
build "$root" "the checkout"
head_bins=$(cd "$root" && cargo metadata --format-version 1 --no-deps |
    sed -n 's/.*"target_directory":"\([^"]*\)".*/\1/p')/release

rm -rf "$scratch/out-base" "$scratch/out-head"
run "$scratch/target/release" "$scratch/out-base"
run "$head_bins" "$scratch/out-head"

status=0
for entry in "${commands[@]}"; do
    name=${entry%%|*}
    if ! diff -rq "$scratch/out-base/$name" "$scratch/out-head/$name" > /dev/null; then
        echo "same-bytes: \`${entry#*|}\` wrote different bytes:" >&2
        diff -rq "$scratch/out-base/$name" "$scratch/out-head/$name" >&2 || true
        status=1
    fi
done
[ "$status" = 0 ] && echo "same-bytes: ${#commands[@]} commands wrote identical bytes at $rev and the checkout"
exit "$status"
