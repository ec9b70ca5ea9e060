#!/usr/bin/env bash
# A/A test: runs the full set twice on the same code - six workloads,
# untraced on several seeds and traced on one - the second time in reverse
# order, and compares the two sets. Exits non-zero when the medians of an
# end-to-end metric differ between the sets by more than the metric's own
# bound, or when anything that must repeat exactly (ok_share, design_cycles,
# fig7_logerr, attempted/failed counts, per-layer counters) does not. A row
# whose spread inside a set is wider than its bound is marked `unresolved`.
#
# usage: benchmark/aa.sh [first seed] [seeds] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."

first="${1:-1}"
seeds="${2:-5}"
seconds="${3:-15}"
out=benchmark/out/aa
mkdir -p "$out"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/pphw-benchmark"

workloads=(compile_suite dse_cold_gemm dse_warm_replay dse_guided_big sim_faulted serve_mix)

run_set() { # <file> <workload>...
  local file="$1"
  shift
  : > "$file"
  for w in "$@"; do
    for ((s = first; s < first + seeds; s++)); do
      echo "aa: $w --seed $s --trace 0 -> $file" >&2
      line="$("$bin" run --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 | tail -n 1)"
      echo "$w 0 $s $line" >> "$file"
    done
    echo "aa: $w --seed $first --trace 1 -> $file" >&2
    line="$("$bin" run --workload "$w" --seed "$first" --seconds "$seconds" --trace 1 | tail -n 1)"
    echo "$w 1 $first $line" >> "$file"
  done
}

reversed=()
for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do reversed+=("${workloads[i]}"); done

run_set "$out/first.txt" "${workloads[@]}"
run_set "$out/second.txt" "${reversed[@]}"

"$bin" compare "$out/first.txt" "$out/second.txt"
