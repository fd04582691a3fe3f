#!/usr/bin/env bash
# Byte-identity check between two builds: runs every experiment binary whose
# default stdout is deterministic, the quickstart example, and the chaos
# fuzzer (50 seeds, plain and with --trace, --batch 4, --buffer hybrid,
# --buffer overlay, --probe, and --overload under each of the three
# overload policies) in both build directories, then diffs each run's stdout
# and exit status.
#
#   scripts/bench_stdout_diff.sh PARENT_BUILD CHANGE_BUILD
#
# bench_e18_throughput is skipped: it prints wall-clock lines. Runs go out
# in parallel, one worker per CPU, slowest first; bench_e21_scale peaks near
# 5 GB resident, so its two runs share one worker, one after the other.
# Exits 0 when every run matches, 1 when any differs (the first lines of
# each diff are printed).
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD" >&2
  exit 2
fi
parent=$1
change=$2

big=bench/bench_e21_scale
runs=()
# The slow ones first, so they overlap with everything else.
for name in e5_buffering_scale e12_overhead; do
  runs+=("bench/bench_${name}")
done
for bin in "${parent}"/bench/bench_e[0-9]*; do
  rel="bench/$(basename "${bin}")"
  case "${rel}" in
    bench/bench_e18_throughput | "${big}" | bench/bench_e5_buffering_scale | \
      bench/bench_e12_overhead) ;;
    *) runs+=("${rel}") ;;
  esac
done
runs+=(
  "examples/quickstart"
  "bench/fuzz_chaos --seeds 50"
  "bench/fuzz_chaos --seeds 50 --trace"
  "bench/fuzz_chaos --seeds 50 --batch 4"
  "bench/fuzz_chaos --seeds 50 --buffer hybrid"
  "bench/fuzz_chaos --seeds 50 --buffer overlay"
  "bench/fuzz_chaos --seeds 50 --probe"
  "bench/fuzz_chaos --seeds 50 --overload --policy throttle"
  "bench/fuzz_chaos --seeds 50 --overload --policy shed-new"
  "bench/fuzz_chaos --seeds 50 --overload --policy evict-laggard"
)

out=$(mktemp -d)
trap 'rm -rf "${out}"' EXIT

# One job per (build, run): "SIDE BUILD_DIR BINARY ARGS...".
run_one() {
  local side=$1 dir=$2
  shift 2
  local tag
  tag=$(printf '%s' "$*" | tr -c 'A-Za-z0-9_.-' '_')
  local status=0
  local bin=$1
  shift
  "${dir}/${bin}" "$@" >"${OUT}/${side}.${tag}.stdout" 2>/dev/null || status=$?
  echo "${status}" >"${OUT}/${side}.${tag}.status"
}
export -f run_one
export OUT="${out}"

(run_one parent "${parent}" "${big}" && run_one change "${change}" "${big}") &
big_lane=$!
workers=$(($(nproc) > 1 ? $(nproc) - 1 : 1))
for run in "${runs[@]}"; do
  echo "parent ${parent} ${run}"
  echo "change ${change} ${run}"
done | xargs -P "${workers}" -L 1 bash -c 'run_one "$@"' _
wait "${big_lane}"
runs=("${big}" "${runs[@]}")

differ=0
for run in "${runs[@]}"; do
  tag=$(printf '%s' "${run}" | tr -c 'A-Za-z0-9_.-' '_')
  if cmp -s "${out}/parent.${tag}.stdout" "${out}/change.${tag}.stdout" &&
    cmp -s "${out}/parent.${tag}.status" "${out}/change.${tag}.status"; then
    echo "same    ${run} (exit $(cat "${out}/parent.${tag}.status"))"
  else
    differ=$((differ + 1))
    echo "DIFFERS ${run} (exit $(cat "${out}/parent.${tag}.status") vs" \
      "$(cat "${out}/change.${tag}.status"))"
    diff "${out}/parent.${tag}.stdout" "${out}/change.${tag}.stdout" | head -20 || true
  fi
done

if [[ ${differ} -ne 0 ]]; then
  echo "bench_stdout_diff: ${differ} of ${#runs[@]} runs differ"
  exit 1
fi
echo "bench_stdout_diff: all ${#runs[@]} runs byte-identical"
