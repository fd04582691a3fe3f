#!/usr/bin/env bash
# CPU profile of one repository-benchmark workload: builds perfbench/ as a
# Release binary instrumented with -pg into build-prof/, runs the workload
# once untraced at seed 1, and prints the top 25 rows of the gprof flat
# profile (self time per symbol, with call counts).
#
#   scripts/profile.sh WORKLOAD [SECONDS]
#
# WORKLOAD is one of the perfbench workloads (causal-burst, causal-alltoall,
# total-churn, txn-contention); SECONDS is the run budget (default 5). The
# instrumented tree is kept apart from the benchmark's own .bench_build so
# that timed runs never pick up a -pg binary. -pg adds its own overhead to
# every call, so read the profile for shares, never for absolute speed.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 WORKLOAD [SECONDS]" >&2
  exit 2
fi
workload=$1
seconds=${2:-5}

cmake -S perfbench -B build-prof -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >/dev/null
cmake --build build-prof -j "$(nproc)" >/dev/null

# gprof writes gmon.out into the working directory of the profiled process.
(
  cd build-prof
  rm -f gmon.out
  ./perfbench --workload "${workload}" --seed 1 --seconds "${seconds}" --trace 0 >/dev/null
)
# The flat profile: a 5-line header, then one row per symbol.
gprof -b -p build-prof/perfbench build-prof/gmon.out | head -n 30
