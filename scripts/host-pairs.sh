#!/usr/bin/env bash
# Host-time gate: alternating parent/change pairs of the benchmark.
#
#   scripts/host-pairs.sh <rev> <workload> <pairs> [seconds] [seed] [scratch-dir]
#
# Exports <rev> with `git archive` into the scratch directory (a fresh
# temporary one by default), builds the benchmark binary of <rev> and of
# the checkout's working tree into their own target directories there,
# and runs `acuerdo-benchmark --workload <workload> --seed <seed>
# --seconds <seconds> --trace 0` (defaults 12 and 42) <pairs> times on
# each side, each from its own tree: pair i runs the parent first when i
# is odd and the change first when i is even. <workload> may name several
# workloads, comma-separated; each pair then runs them in that order.
#
# Every run must read `"correct": true` and the same virtual-time members
# (`commit_p50_us`, `commit_p99_us`, `throughput_msgs_s`, `attempted`,
# `failed`) as the first run of its workload on its own side; the script
# exits 1 naming the first run that differs. The two sides may differ: a
# change that moves virtual time on purpose moves it in every run. The
# script then prints, per workload, each virtual-time member on both sides
# and its move, and per host metric each side's median and quartiles, the
# median's change, the pairs the change won and the parent's interquartile
# range, and beside `peak_rss_mb` each side's `acuerdo-benchmark` binary
# size in bytes (VmHWM counts the binary's touched text pages, so an RSS
# move of the order of the size change may be code, not heap), and writes
# the `pairs` member of `baselines/BENCHMARK_<pr>.json`
# (docs/SIDECARS.md) to <scratch-dir>/pairs.json. Exits 2 on a usage or
# build error.
set -euo pipefail

usage="usage: scripts/host-pairs.sh <rev> <workload>[,<workload>...] <pairs> [seconds] [seed] [scratch-dir]"
rev=${1:?$usage}
workloads=${2:?$usage}
pairs=${3:?$usage}
seconds=${4:-12}
seed=${5:-42}
for n in "$pairs" "$seconds" "$seed"; do
    [[ $n =~ ^[0-9]+$ && $n -gt 0 ]] || {
        echo "host-pairs: $n is not a positive whole number" >&2
        echo "$usage" >&2
        exit 2
    }
done
((pairs >= 2)) || {
    echo "host-pairs: quartiles need at least 2 pairs" >&2
    exit 2
}
root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") || {
    echo "host-pairs: unknown revision $rev" >&2
    exit 2
}
scratch=${6:-$(mktemp -d)}
mkdir -p "$scratch/parent" "$scratch/runs"
git -C "$root" archive "$commit" | tar -x -C "$scratch/parent"

# build <tree> <target dir> <name>
build() {
    echo "host-pairs: building $3" >&2
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/benchmark/Cargo.toml" || {
        echo "host-pairs: build of $3 failed" >&2
        exit 2
    }
}
build "$scratch/parent" "$scratch/target-parent" "$rev"
build "$root" "$scratch/target-change" "the checkout"
sizes=()
for side in parent change; do
    sizes+=("$(stat -c %s "$scratch/target-$side/release/acuerdo-benchmark")")
done

# run <side> <tree> <workload> <pair>: the result line goes to runs/.
run() {
    local out="$scratch/runs/$3.$1.$4"
    (cd "$2" && "$scratch/target-$1/release/acuerdo-benchmark" --workload "$3" \
        --seed "$seed" --seconds "$seconds" --trace 0 > "$out.stdout" 2> "$out.stderr") || {
        echo "host-pairs: $1 run $4 of $3 failed (see $out.stderr)" >&2
        exit 2
    }
    tail -n 1 "$out.stdout" > "$out.json"
}

IFS=, read -ra names <<< "$workloads"
for ((i = 1; i <= pairs; i++)); do
    for w in "${names[@]}"; do
        echo "host-pairs: $w pair $i of $pairs" >&2
        if ((i % 2)); then
            run parent "$scratch/parent" "$w" "$i"
            run change "$root" "$w" "$i"
        else
            run change "$root" "$w" "$i"
            run parent "$scratch/parent" "$w" "$i"
        fi
    done
done

python3 - "$scratch" "$pairs" "$seconds" "$seed" "${sizes[@]}" "${names[@]}" <<'EOF'
import json, statistics, sys

scratch, pairs, seconds, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
binary = {"parent": int(sys.argv[5]), "change": int(sys.argv[6])}
names = sys.argv[7:]
VIRTUAL = ["commit_p50_us", "commit_p99_us", "throughput_msgs_s"]
HOST = ["host_us_per_commit", "setup_s", "peak_rss_mb"]

def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def move(a, b):
    return f"{(b - a) / a * 100:+.3f} %" if a else ("+0.000 %" if a == b else "new")

runs = {}
for w in names:
    sides = {}
    for side in ("parent", "change"):
        results = []
        first = None
        for i in range(1, pairs + 1):
            path = f"{scratch}/runs/{w}.{side}.{i}.json"
            r = json.load(open(path))
            pinned = (r["correct"], r["attempted"], r["failed"],
                      [r["metrics"][m]["value"] for m in VIRTUAL])
            if not r["correct"]:
                sys.exit(f"host-pairs: {path} does not read correct")
            if first is None:
                first = pinned
            elif pinned != first:
                sys.exit(f"host-pairs: {path} moved virtual time: {pinned} against {side} run 1: {first}")
            results.append(r)
        r0 = results[0]
        out = {m: r0["metrics"][m]["value"] for m in VIRTUAL}
        out["attempted"], out["failed"] = r0["attempted"], r0["failed"]
        for m in HOST:
            out[m] = [r["metrics"][m]["value"] for r in results]
        sides[side] = out
    runs[w] = sides
    for m in VIRTUAL + ["attempted", "failed"]:
        p, c = sides["parent"][m], sides["change"][m]
        print(f"{w} {m}: parent {p:.8g}  change {c:.8g}  move {move(p, c)}")
    for m in HOST:
        p, c = sides["parent"][m], sides["change"][m]
        pq, cq = quartiles(p), quartiles(c)
        won = sum(b < a for a, b in zip(p, c))
        delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
        print(f"{w} {m}: parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]"
              f"  change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]"
              f"  median {delta:+.1f} %  change won {won}/{pairs}"
              f"  parent IQR {pq[2] - pq[0]:.4g}")
        if m == "peak_rss_mb":
            p, c = binary["parent"], binary["change"]
            print(f"{w} binary_bytes: parent {p}  change {c}  move {c - p:+d} B ({move(p, c)})")

doc = {
    "seed": seed,
    "seconds": seconds,
    "trace": 0,
    "order": "pair i ran the parent first when i is odd, the change first when i is even",
    "runs": runs,
}
with open(f"{scratch}/pairs.json", "w") as f:
    json.dump(doc, f, separators=(",", ":"))
    f.write("\n")
print(f"host-pairs: wrote {scratch}/pairs.json")
EOF
