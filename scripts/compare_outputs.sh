#!/usr/bin/env bash
# Runs the examples, bench_compression_compat and bench_async_stragglers
# from two build directories and compares each program's stdout+stderr
# byte for byte. A change that keeps trajectories bit-identical must leave
# every output unchanged.
#
# Usage: scripts/compare_outputs.sh PARENT_BUILD CHANGE_BUILD
#
# Both directories must hold a full build (examples and benches on). For
# every program that differs, the first differing lines are printed. Exits
# 1 on any difference or when a run exits non-zero, 2 on bad usage.
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent_dir="$1"
change_dir="$2"

# Each entry is optional VAR=value words followed by the program name.
programs=(
  quickstart
  hierarchical_fda
  deep_tree_fda
  churn_fda
  async_edge
  bandwidth_budget
  heterogeneity
  transfer_finetune
  bench_compression_compat
  bench_async_stragglers
  "FEDRA_FLEET_SMOKE=1 fleet_fda"
  "FEDRA_FLEET_SMOKE=1 compressed_fleet_fda"
)

out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT

# run_one BUILD_DIR ENTRY OUT_FILE: runs ENTRY from BUILD_DIR, stdout and
# stderr into OUT_FILE; returns the program's exit code.
run_one() {
  local words
  read -r -a words <<< "$2"
  local program="${words[${#words[@]}-1]}"
  env "${words[@]:0:${#words[@]}-1}" "$1/$program" > "$3" 2>&1
}

failed=0
for entry in "${programs[@]}"; do
  name="${entry##* }"
  for side in parent change; do
    dir_var="${side}_dir"
    if ! run_one "${!dir_var}" "$entry" "$out_dir/$name.$side"; then
      echo "FAIL $entry: exited non-zero in ${!dir_var}"
      tail -n 5 "$out_dir/$name.$side"
      failed=1
    fi
  done
  if cmp -s "$out_dir/$name.parent" "$out_dir/$name.change"; then
    echo "same $entry"
  else
    echo "DIFF $entry (< $parent_dir, > $change_dir):"
    diff "$out_dir/$name.parent" "$out_dir/$name.change" | head -n 12
    failed=1
  fi
done

if [[ $failed -ne 0 ]]; then
  echo "compare_outputs: outputs differ or a run failed"
  exit 1
fi
echo "compare_outputs: all ${#programs[@]} programs identical"
