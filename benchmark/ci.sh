#!/usr/bin/env bash
# Quick gate for a workflow job (not wired in yet): the package's unit tests,
# then every workload in --smoke mode (a tenth of the virtual time, one
# repetition; the whole set takes under 10 s once built), one traced smoke
# run, and the strict flag handling. Run from anywhere inside a checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

cargo test --offline --quiet --manifest-path "$here/Cargo.toml"

# The result is the last line of stdout; a run is good when it exits 0 and
# that line says so.
smoke() {
    local line
    line="$(bash "$here/run.sh" --smoke "$@" | tail -n 1)"
    if [[ $line != '{"correct": true, '* ]]; then
        echo "ci: $* did not end with a correct result line: $line" >&2
        return 1
    fi
}

start=$SECONDS
for workload in lat_3n ycsb_3n star_16n ring_16n failover_5n; do
    smoke --workload "$workload" --trace 0
done
echo "ci: smoke set took $((SECONDS - start)) s" >&2
smoke --workload failover_5n --trace 1

if bash "$here/run.sh" --workload lat_3n --no-such-flag >/dev/null 2>&1; then
    echo "ci: an unknown flag was accepted" >&2
    exit 1
fi
echo "ci: ok" >&2
