#!/usr/bin/env bash
# Provenance gate (DESIGN.md §8, E19): the fixed-seed Perfetto export from
# bench_e19_provenance must be byte-deterministic across two runs, and the
# offline analyzer (scripts/trace_analyze.py) must compute the same summary
# hash from both exports — the hash checked in as
# tests/golden/e19_summary_hash.txt. Invoked by scripts/check.sh and the
# check-provenance cmake target. Reuses an existing build if one is
# configured.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD_DIR}" -S .
fi
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target bench_e19_provenance

prov_a="$(mktemp --suffix=.json)"
prov_b="$(mktemp --suffix=.json)"
trap 'rm -f "${prov_a}" "${prov_b}"' EXIT
"${BUILD_DIR}/bench/bench_e19_provenance" --trace-out="${prov_a}" > /dev/null
"${BUILD_DIR}/bench/bench_e19_provenance" --trace-out="${prov_b}" > /dev/null
if ! cmp -s "${prov_a}" "${prov_b}"; then
  echo "provenance_gate: trace export differs between identical runs" >&2
  exit 1
fi
hash_a=$(python3 scripts/trace_analyze.py "${prov_a}" | tail -1)
hash_b=$(python3 scripts/trace_analyze.py "${prov_b}" | tail -1)
if [[ -z "${hash_a}" || "${hash_a}" != "${hash_b}" ]]; then
  echo "provenance_gate: summary hashes diverged: ${hash_a} vs ${hash_b}" >&2
  exit 1
fi
golden=$(grep '^summary_hash=' tests/golden/e19_summary_hash.txt)
if [[ "${hash_a}" != "${golden}" ]]; then
  echo "provenance_gate: ${hash_a} differs from tests/golden/e19_summary_hash.txt (${golden})" >&2
  exit 1
fi
echo "provenance_gate: export deterministic and matches the golden (${hash_a})"
