#!/bin/sh
# Fails when non-test code copies a DeviceBuffer in or out. The rule (gpu-sim/src/buffer.rs):
# a DeviceBuffer is made from a Vec and returned as a Vec by move, and read-only kernel
# operands are plain slices.
# A file's non-test code is everything above its first `#[cfg(test)]`; `.to_vec()` is
# flagged only in files whose non-test code names DeviceBuffer.
# Usage: scripts/check-device-buffer-copies.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"
status=0
for file in $(find crates/*/src src -name '*.rs' | sort); do
    hits=$(awk '
        /#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /DeviceBuffer/ { uses = 1 }
        /DeviceBuffer::from_slice/ { print FILENAME ":" FNR ": " $0; next }
        /\.to_vec\(\)/ { held[FNR] = $0 }
        END { if (uses) for (n in held) print FILENAME ":" n ": " held[n] }
    ' "$file" | sort -t: -k2,2n)
    if [ -n "$hits" ]; then
        printf '%s\n' "$hits"
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    echo "DeviceBuffer copied in or out: use from_vec / into_vec, or pass a slice" >&2
fi
exit "$status"
