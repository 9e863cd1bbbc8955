#!/usr/bin/env bash
# Builds and runs the wall-clock benchmark from the root of the checkout.
#
#   benchmark/run.sh                 every workload, 20 s each, tracing off
#   benchmark/run.sh --smoke         every workload, 2 s each: the mode a CI job can call
#   benchmark/run.sh ARGS...         passes ARGS to hfz-benchmark, e.g.
#                                    --workload serve_cold --seed 7 --trace 1
#                                    --all --trace 1
#                                    --check-repeat --runs 10 --seconds 10
#
# Exits non-zero when any output check fails.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
    shift
    set -- --all --seconds 2 "$@"
elif [[ $# -eq 0 ]]; then
    set -- --all
fi

exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
