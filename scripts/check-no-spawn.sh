#!/bin/sh
# Fails when non-test code of a compute crate starts a thread (`thread::scope`,
# `thread::spawn` or a `thread::Builder`). The rule (gpu-sim/src/pool.rs):
# launches, device primitives and multi-field waves run on the device's one worker pool,
# which is the only place a helper thread is spawned.
# A file's non-test code is everything above its first `#[cfg(test)]`; comments are skipped.
# Usage: scripts/check-no-spawn.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"
status=0
for file in $(find crates/gpu-sim/src crates/core/src crates/sz/src \
    crates/hybrid/src crates/huffman/src crates/codec/src -name '*.rs' | sort); do
    [ "$file" = crates/gpu-sim/src/pool.rs ] && continue
    hits=$(awk '
        /#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /thread::(scope|spawn|Builder)/ { print FILENAME ":" FNR ": " $0 }
    ' "$file")
    if [ -n "$hits" ]; then
        printf '%s\n' "$hits"
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "thread started outside the device pool: use Backend::run_tasks / Gpu::run_tasks" >&2
fi
exit "$status"
