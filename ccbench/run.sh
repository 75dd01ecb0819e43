#!/usr/bin/env bash
# Builds the benchmark when its sources changed, then runs it.
#
#   bash ccbench/run.sh --workload <name> [--seed n] [--seconds n] [--trace 0|1]
#
# Run from the repository root. `cargo run` is not used directly: the
# daemon crate's build script re-runs whenever `.git/HEAD` is missing,
# so outside a git checkout every `cargo run` would rebuild the daemon.
# Here the build happens only when a source file is newer than the
# binary.
set -euo pipefail

target="${CARGO_TARGET_DIR:-ccbench/target}"
bin="$target/release/ccbench"

stale() {
    [ ! -x "$bin" ] && return 0
    [ -n "$(find Cargo.toml crates vendor ccbench \
        \( -path ccbench/target -o -path '*/.ccbench' \) -prune -o \
        -type f -newer "$bin" -print -quit)" ]
}

if stale; then
    cargo build --release --offline --quiet --manifest-path ccbench/Cargo.toml
    touch "$bin"
fi
exec "$bin" "$@"
