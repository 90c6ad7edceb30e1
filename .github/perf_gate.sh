#!/usr/bin/env bash
# Perf gate: runs the repository benchmark (perfbench, declared in
# BENCHMARK.json) on this checkout and on a parent revision, and fails when
#   - any perfbench run exits non-zero (its correctness gates: bit parity,
#     no failed operations), or
#   - on any workload, this checkout's median `throughput_per_s` is below
#     RATIO_FLOOR times the parent's.
#
# Usage: .github/perf_gate.sh <parent-rev>
#
# The parent is checked out with `git worktree add` under target/, and each
# side builds perfbench and runs it from its own checkout root (perfbench
# writes .bench_results/ relative to the working directory). Runs come in
# interleaved pairs, alternating which side goes first, so drift in machine
# load hits both sides alike.
#
# RATIO_FLOOR comes from A/A runs (one binary on both sides, seeds 1-10,
# 3 s each) on a shared 2-core VM: the ratio of medians of 3 stayed within
# 0.81-1.24, so 0.7 does not trip on noise, while a true 50% drop scales
# that band to at most 0.62 and always trips it.
set -euo pipefail

WORKLOADS=(dse_sweep train serve_open)
SEEDS=(1 2 3)
RUN_SECONDS=3
RATIO_FLOOR=0.7

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <parent-rev>" >&2
  exit 2
fi
parent_rev=$1

change_root=$(git rev-parse --show-toplevel)
parent_root=$change_root/target/perf-gate-parent
logs=$change_root/target/perf-gate-logs
# Both sides must build into their own perfbench/target.
unset CARGO_TARGET_DIR

cleanup() {
  git -C "$change_root" worktree remove --force "$parent_root" 2>/dev/null || true
}
trap cleanup EXIT

cleanup
rm -rf "$logs"
mkdir -p "$logs"
git -C "$change_root" worktree add --quiet --detach "$parent_root" "$parent_rev"

for root in "$parent_root" "$change_root"; do
  echo "building perfbench in $root"
  (cd "$root" && cargo build --release --offline --manifest-path perfbench/Cargo.toml)
done

# run <side> <workload> <seed>: one perfbench run; prints its throughput.
run() {
  local side=$1 workload=$2 seed=$3 root log tp
  if [ "$side" = parent ]; then root=$parent_root; else root=$change_root; fi
  log=$logs/$side-$workload-seed$seed.log
  if ! (cd "$root" && ./perfbench/target/release/pg_perfbench --workload "$workload" \
      --seed "$seed" --seconds "$RUN_SECONDS" --trace 0) >"$log" 2>&1; then
    echo "FAIL: perfbench $workload seed $seed exited non-zero on the $side side:" >&2
    tail -n 30 "$log" >&2
    exit 1
  fi
  tp=$(awk '$1 == "#" && $2 == "throughput_per_s" { print $3 }' "$log")
  if [ -z "$tp" ]; then
    echo "FAIL: no throughput_per_s in $log" >&2
    exit 1
  fi
  echo "$tp"
}

median() {
  printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }'
}

failed=0
pair=0
table=$(printf '%-12s %12s %12s %7s\n' workload parent change ratio)
for workload in "${WORKLOADS[@]}"; do
  parent_tp=()
  change_tp=()
  for seed in "${SEEDS[@]}"; do
    if [ $((pair % 2)) -eq 0 ]; then
      parent_tp+=("$(run parent "$workload" "$seed")")
      change_tp+=("$(run change "$workload" "$seed")")
    else
      change_tp+=("$(run change "$workload" "$seed")")
      parent_tp+=("$(run parent "$workload" "$seed")")
    fi
    pair=$((pair + 1))
    printf '%s seed %s: parent %.1f/s, change %.1f/s\n' \
      "$workload" "$seed" "${parent_tp[-1]}" "${change_tp[-1]}"
  done
  p=$(median "${parent_tp[@]}")
  c=$(median "${change_tp[@]}")
  ratio=$(awk -v p="$p" -v c="$c" 'BEGIN { printf "%.3f", c / p }')
  verdict=$(awk -v r="$ratio" -v f="$RATIO_FLOOR" 'BEGIN { print (r < f) ? "FAIL" : "ok" }')
  [ "$verdict" = ok ] || failed=1
  table+=$'\n'$(printf '%-12s %12.1f %12.1f %7s  %s' "$workload" "$p" "$c" "$ratio" "$verdict")
done

echo
echo "$table"
if [ "$failed" -ne 0 ]; then
  echo "FAIL: median throughput_per_s below ${RATIO_FLOOR}x the parent on a workload" >&2
  exit 1
fi
echo "perf gate: ok (floor ${RATIO_FLOOR}x parent median throughput)"
