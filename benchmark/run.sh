#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it with the given arguments.
# Run from the root of a checkout: bash benchmark/run.sh --workload lat_3n ...
#
# Refuses to run when this package's [profile.release] differs from the root
# manifest's: the crates under test are compiled with *this* package's
# profile, so a different block would measure a different engine.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The body of [profile.release]: comments and blank lines dropped.
release_profile() {
    awk '
        /^\[/ { inside = ($0 == "[profile.release]"); next }
        inside { sub(/[ \t]*#.*/, ""); if ($0 != "") print }
    ' "$1"
}

if [[ ! -f "$root/Cargo.toml" ]]; then
    echo "benchmark/run.sh: no Cargo.toml beside benchmark/: run it from a checkout of the repository" >&2
    exit 3
fi
if ! diff <(release_profile "$root/Cargo.toml") <(release_profile "$here/Cargo.toml") >&2; then
    echo "benchmark/run.sh: [profile.release] of benchmark/Cargo.toml differs from the root manifest's (diff above); make them equal" >&2
    exit 3
fi

# Build output goes to stderr, so the last line of stdout stays the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
target="$(cd "${CARGO_TARGET_DIR:-$here/target}" && pwd)"
# The benchmark writes its trace under benchmark/out relative to the root.
cd "$root"
exec "$target/release/acuerdo-benchmark" "$@"
