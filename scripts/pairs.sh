#!/usr/bin/env bash
# Alternating pairs of the wall-clock benchmark: REV (the base) against HEAD (the
# change), on one workload.
#
#   scripts/pairs.sh REV WORKLOAD [PAIRS] [SEED]      (defaults: 10 pairs, seed 42)
#   scripts/pairs.sh HEAD serve_hot 3                 a null run: resolves nothing
#
# Both sides are built from one `git worktree` under `mktemp -d` (removed on exit):
# REV is checked out there and built `--offline` with its own CARGO_TARGET_DIR, then
# HEAD in the same directory with another. The benchmark compiles its source directory
# into the binary, and a different source path alone moved `file_decompress`'s peak RSS
# by up to 0.9 MB, so both binaries must come from the same path; the change is
# therefore HEAD as committed, never this checkout (uncommitted edits are not
# measured). Each pair runs each side's binary once, from that directory, with the
# arguments `benchmark/run.sh` passes (`--workload W --seed S --seconds T`, T being
# `run_seconds` of BENCHMARK.json; `run.sh` itself would let cargo rebuild the side
# whose sources are not checked out), the base first in odd pairs and the change first
# in even ones. For each end-to-end metric of BENCHMARK.json it prints the per-pair
# values, the change's wins, the median ratio change/base, the base's spread (its
# quartile distance against the bound) and the verdict: with at least ten pairs, a gain
# or a loss is resolved when one side wins nine tenths of them and the medians differ
# by more than the base's quartile distance; fewer pairs resolve nothing. The last line
# is one JSON object with all of it.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: scripts/pairs.sh REV WORKLOAD [PAIRS] [SEED]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seed=${4:-42}
base_sha=$(git rev-parse --verify "$rev^{commit}")
change_sha=$(git rev-parse HEAD)
if [[ -n "$(git status --porcelain --untracked-files=no)" ]]; then
    echo "note: uncommitted changes are not measured; the change is HEAD $change_sha" >&2
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/tree" 2>/dev/null || true
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT

echo "building base $base_sha and change $change_sha ..." >&2
git worktree add --quiet --detach "$tmp/tree" "$base_sha"
for side in base change; do
    if [[ $side == change ]]; then git -C "$tmp/tree" checkout --quiet --detach "$change_sha"; fi
    (cd "$tmp/tree" && CARGO_TARGET_DIR="$tmp/$side.target" cargo build --release --quiet \
        --offline --manifest-path benchmark/Cargo.toml)
done

run() { # SIDE PAIR: appends the run's result line (or a failure record) to $tmp/SIDE.jsonl
    local line status=0
    line=$(cd "$tmp/tree" && "$tmp/$1.target/release/hfz-benchmark" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" 2>"$tmp/$1-$2.err" | tail -n 1) || status=$?
    if [[ $status -ne 0 ]]; then
        echo "  $1 run of pair $2 exited $status: $(tail -n 1 "$tmp/$1-$2.err")" >&2
    fi
    if [[ ${line:0:1} != "{" ]]; then
        line='{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}'
    fi
    echo "$line" >>"$tmp/$1.jsonl"
}
for ((i = 1; i <= pairs; i++)); do
    echo "pair $i of $pairs ..." >&2
    if ((i % 2 == 1)); then run base "$i"; run change "$i"; else run change "$i"; run base "$i"; fi
done

python3 - "$tmp/base.jsonl" "$tmp/change.jsonl" "$base_sha" "$change_sha" "$workload" "$seed" \
    "$seconds" <<'EOF'
import json, statistics, sys

base_path, change_path, base_sha, change_sha, workload, seed, seconds = sys.argv[1:]
base = [json.loads(l) for l in open(base_path)]
change = [json.loads(l) for l in open(change_path)]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return q[0], q[2]


print(f"{workload}  seed {seed}  {len(base)} pairs of {seconds} s  "
      f"base {base_sha[:12]}  change {change_sha[:12]}")
report = {"workload": workload, "seed": int(seed), "pairs": len(base),
          "seconds": float(seconds), "base": base_sha, "change": change_sha,
          "failed_runs": {"base": sum(not r["correct"] for r in base),
                          "change": sum(not r["correct"] for r in change)},
          "failed_ops": {"base": sum(r["failed"] for r in base),
                         "change": sum(r["failed"] for r in change)},
          "metrics": {}}
for m in metrics:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
             for b, c in zip(base, change) if name in b["metrics"] and name in c["metrics"]]
    if not pairs:
        continue
    bs, cs = [b for b, _ in pairs], [c for _, c in pairs]
    better = lambda x, y: x < y if lower else x > y
    wins = sum(better(c, b) for b, c in pairs)
    losses = sum(better(b, c) for b, c in pairs)
    bm, cm = statistics.median(bs), statistics.median(cs)
    q1, q3 = quartiles(bs)
    spread = (q3 - q1) / bm if bm else 0.0
    ratio = cm / bm if bm else float("nan")
    worse = (ratio - 1.0) if lower else (1.0 - ratio)
    need = 0.9 * len(pairs)
    resolved = None
    if len(pairs) >= 10 and abs(cm - bm) > q3 - q1:
        if wins >= need:
            resolved = "gain"
        elif losses >= need:
            resolved = "loss"
    print(f"\n{name} ({m['unit']}, {m['better']} is better, bound {bound:.0%})")
    print("  pair  base          change")
    for i, (b, c) in enumerate(pairs, 1):
        print(f"  {i:>4}  {b:<12.6g}  {c:<12.6g}")
    print(f"  change wins {wins} of {len(pairs)} ({losses} losses)  medians {bm:.6g} -> "
          f"{cm:.6g}  ratio {ratio:.4f}")
    print(f"  base spread {spread:.1%} of its median "
          f"({'within' if spread <= bound else 'WIDER than'} the {bound:.0%} bound)  "
          f"change worse by {max(worse, 0.0):.1%} "
          f"({'within' if worse <= bound else 'BEYOND'} the bound)  "
          f"resolved: {resolved or 'nothing'}")
    report["metrics"][name] = {
        "base": bs, "change": cs, "wins": wins, "losses": losses,
        "base_median": bm, "change_median": cm, "median_ratio": ratio,
        "base_quartiles": [q1, q3], "base_spread": spread,
        "spread_within_bound": spread <= bound, "within_bound": worse <= bound,
        "resolved": resolved,
    }
print()
print(json.dumps(report, separators=(",", ":")))
EOF
