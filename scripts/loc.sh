#!/bin/sh
# Non-blank lines of Rust per crate `src/` directory, then the workspace total (the root
# facade's `src/` included) — the number a PR description quotes as "workspace LoC".
# Usage: scripts/loc.sh [repo-root]
set -eu
cd "${1:-$(dirname "$0")/..}"
count() { find "$1" -name '*.rs' -exec cat {} + | grep -c '[^[:space:]]' || true; }
total=0
for src in crates/*/src src; do
    n=$(count "$src")
    printf '%8d  %s\n' "$n" "$src"
    total=$((total + n))
done
printf '%8d  total\n' "$total"
