#!/usr/bin/env bash
# Sanitizer gate: builds the whole tree with ASan+UBSan in a separate build
# directory, runs the full test suite under it, then runs the chaos seed
# sweep (scripts/chaos.sh) against the same sanitized build. Slower than the
# default build — use before merging protocol or simulator changes.
set -euo pipefail

cd "$(dirname "$0")/.."

# Cheap gates first: formatting (no-op where clang-format is unavailable).
./scripts/lint.sh

BUILD_DIR=${BUILD_DIR:-build-asan}

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

# Chaos smoke under the sanitized binaries: a reduced seed sweep keeps the
# gate fast while still exercising crash/rejoin/state-transfer under ASan —
# including the overload-policy legs (chaos.sh POLICIES).
BUILD_DIR="${BUILD_DIR}" SEEDS="${CHAOS_SEEDS:-10}" ./scripts/chaos.sh

# Long-partition soak, reduced for the gate: a couple of stretched-horizon
# seeds so a partition held past the failure timeout (plus the heal,
# rejoin, and retention drain after it) runs under ASan with the
# bounded-memory oracle on.
BUILD_DIR="${BUILD_DIR}" SEEDS="${SOAK_SEEDS:-2}" ./scripts/soak.sh

# Scale smoke: the overlay causal path at N=1024 under churn and N=4096
# quiescent (E21 acceptance cells). Deliberately NOT under the sanitized
# build — at a million deliveries per cell ASan turns minutes into hours —
# so it uses the default build directory; the protocol logic it runs is
# identical to what the sanitized ctest suite already covered at small N.
./scripts/scale_smoke.sh

# Observability smoke: the traced fuzzer must stay deterministic — two
# identical --trace invocations produce byte-identical output (span and hold
# totals included) — and the reduced sweep must come back clean.
TRACE_SEEDS="${TRACE_SEEDS:-5}"
trace_a=$("${BUILD_DIR}/bench/fuzz_chaos" --seeds "${TRACE_SEEDS}" --trace)
trace_b=$("${BUILD_DIR}/bench/fuzz_chaos" --seeds "${TRACE_SEEDS}" --trace)
if [[ "${trace_a}" != "${trace_b}" ]]; then
  echo "check.sh: fuzz_chaos --trace output diverged between identical runs" >&2
  diff <(printf '%s\n' "${trace_a}") <(printf '%s\n' "${trace_b}") >&2 || true
  exit 1
fi
if ! grep -q "trace spans=" <<<"${trace_a}"; then
  echo "check.sh: fuzz_chaos --trace did not report span totals" >&2
  exit 1
fi
if ! grep -q "${TRACE_SEEDS}/${TRACE_SEEDS} seeds clean" <<<"${trace_a}"; then
  echo "check.sh: fuzz_chaos --trace sweep reported failures" >&2
  printf '%s\n' "${trace_a}" >&2
  exit 1
fi
echo "check.sh: fuzz_chaos --trace deterministic over ${TRACE_SEEDS} seeds"

# Provenance gate: the fixed-seed Perfetto export must be byte-deterministic
# and the offline analyzer's summary hash stable across two independent
# exports (scripts/trace_analyze.py; DESIGN.md §8, E19) — under the
# sanitized build, like everything else in this gate.
BUILD_DIR="${BUILD_DIR}" ./scripts/provenance_gate.sh

# Perf is measured separately (sanitized numbers are meaningless): run
# python3 perfbench/run.py on a Release checkout.
echo "check.sh: perf not checked here — run python3 perfbench/run.py for the benchmark"
