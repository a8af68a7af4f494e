#!/usr/bin/env bash
# Run two full sets of the benchmark on the same build — ten seeds of every
# workload each, as the acceptance pipeline does — and compare them: per
# workload and end-to-end metric, both medians, quartiles and spreads and
# the relative difference. Fails when a difference or a spread exceeds the
# metric's bound. Takes about 20 minutes; keep the machine otherwise idle.
#
#   bash benchmark/selfcheck.sh [out-dir]     (default benchmark/out/selfcheck)
#
# `benchmark/NOISE.md` is the committed output of one such run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:-$here/out/selfcheck}"
workloads=(lat_3n ycsb_3n star_16n ring_16n failover_5n)

for set in A B; do
    mkdir -p "$out/$set"
    for workload in "${workloads[@]}"; do
        for seed in 1 2 3 4 5 6 7 8 9 10; do
            # The second set uses ten other seeds, as a second judge would.
            [[ $set == B ]] && seed=$((seed + 100))
            # The whole report is kept; `compare` reads its last line.
            bash "$here/run.sh" --workload "$workload" --seed "$seed" --seconds 12 --trace 0 \
                > "$out/$set/$workload-$seed.json"
            echo "set $set $workload seed $seed done" >&2
        done
    done
done

bash "$here/run.sh" compare "$out/A" "$out/B"
