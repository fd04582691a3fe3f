#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-benchmark-json

Run from the repository root. Builds the Release benchmark binary from source with
CMake (into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench),
runs one workload in a single process, and prints a run report, every metric
by name with its unit and sample count, and as the last line the result
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Exits non-zero when an
oracle or the determinism gate fails, or when nothing can be built.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import catalog  # noqa: E402

ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out.parent / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log_path})")
    return out / "perfbench"


def run_binary(binary, args):
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark binary printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1]), proc.returncode


def git_stamp():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                               text=True, check=True).stdout.strip() != ""
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def derive(raw):
    """Every metric value the catalog names, from the binary's raw readings.

    Returns {name: (value, samples)} plus the flat reading map used to print
    ratio numerators and denominators.
    """
    sim = raw["sim"]
    readings = dict(sim)
    run_s = raw["run_s"]
    ref = raw["ref_s"]
    ops = sim["ops"]
    # Machine slowdown: the reference kernel's median time over its nominal
    # time. The kernel runs after every repetition.
    slowdown = statistics.median(ref) / raw["ref_nominal_s"]
    raw_ops_per_s = statistics.median([ops / t for t in run_s])
    values = {
        "ops_per_s": (raw_ops_per_s * slowdown, len(run_s)),
        "setup_s": (statistics.median(raw["setup_s"]) / slowdown, len(raw["setup_s"])),
        "host.setup_s_raw": (statistics.median(raw["setup_s"]), len(raw["setup_s"])),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
        "sim.events_per_s": (sim["sim.events"] / statistics.median(run_s) * slowdown, len(run_s)),
        "host.ops_per_s_raw": (raw_ops_per_s, len(run_s)),
        "host.slowdown": (slowdown, len(ref)),
    }
    samples = int(sim["op_samples"])
    for name in ("op_ms_p50", "op_ms_p99"):
        values[name] = (sim[name], samples)
    for name, *_ in catalog.END_TO_END + catalog.PER_LAYER:
        if name not in values and name in sim:
            values[name] = (sim[name], 1)
    traced = raw.get("traced")
    if traced is not None:
        readings.update(traced)
        for name, value in traced.items():
            values.setdefault(name, (value, 1))
        calls = traced["catocs.send_spans"]
        values["catocs.send_us_per_call"] = (
            traced["catocs.send_s"] / calls * 1e6 if calls else 0.0, int(calls))
        traced_ops_per_s = (ops / traced["traced.run_s"] * traced["traced.ref_s"]
                            / raw["ref_nominal_s"])
        values["trace.overhead_ratio"] = (traced_ops_per_s / values["ops_per_s"][0], 1)
        readings["traced_ops_per_s"] = traced_ops_per_s
        readings["untraced_ops_per_s"] = values["ops_per_s"][0]
    return values, readings


def reading(readings, expr):
    """Evaluates 'a', 'a + b' or 'a - b' over the readings."""
    parts = expr.split()
    total = readings[parts[0]]
    for op, name in zip(parts[1::2], parts[2::2]):
        total = total + readings[name] if op == "+" else total - readings[name]
    return total


def print_metric(name, unit, value, samples, ratio_of, readings):
    line = f"  {name:<34} {value:>16.6g} {unit:<10} n={samples}"
    if ratio_of:
        num, den = ratio_of
        line += f"  ({num} {reading(readings, num):.6g} / {den} {reading(readings, den):.6g})"
    print(line)


def measure(args):
    binary = build()
    spans_dir = build_dir().parent / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    raw, code = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--spans-dir", str(spans_dir)])
    values, readings = derive(raw)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": catalog.HELDOUT_SEED,
        "trace": args.trace,
        "git": git_stamp(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "nproc": os.cpu_count(),
        "repetitions": len(raw["run_s"]),
        "setup_samples": len(raw["setup_s"]),
    }
    print("report " + json.dumps(report, sort_keys=True))
    for problem in raw["problems"]:
        print(f"problem: {problem}")

    if args.trace == 0:
        chosen = [(n, u, None) for n, u, *_ in catalog.END_TO_END]
        print("end-to-end metrics (median over repetitions where n > 1):")
        for name, unit, _ in chosen:
            value, samples = values[name]
            print_metric(name, unit, value, samples, None, readings)
        print("  (with" + f" failed_ratio {values['failed_ratio'][0]:.6g}"
              f" = failed {raw['failed']:.0f} / attempted {raw['attempted']:.0f})")
        print("host readings behind them (ops_per_s and setup_s are scaled to the nominal "
              "machine speed by the slowdown):")
        for name, unit, *_ in catalog.PER_LAYER:
            if name.startswith("host."):
                print_metric(name, unit, *values[name], None, readings)
    else:
        chosen = [(n, u, ratio_of) for n, u, *_, ratio_of in catalog.PER_LAYER]
        print("per-layer metrics (traced run for spans and holds, untraced repetitions "
              "for counts):")
        for name, unit, ratio_of in chosen:
            value, samples = values[name]
            print_metric(name, unit, value, samples, ratio_of, readings)

    missing = [name for name, _, _ in chosen if name not in values]
    correct = code == 0 and raw["failed"] == 0 and not missing
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]) + len(missing),
        "metrics": {name: {"value": values[name][0], "unit": unit}
                    for name, unit, _ in chosen if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def selftest():
    """Smoke of every workload in both modes, metric presence, oracle trips
    and BENCHMARK.json in sync with the catalog."""
    binary = build()
    ok = subprocess.run([str(binary), "--oracle-selftest"]).returncode == 0
    for workload in catalog.WORKLOAD_NAMES:
        for trace in (0, 1):
            raw, code = run_binary(binary, ["--workload", workload, "--seed", "1", "--seconds",
                                            "0.01", "--trace", str(trace), "--smoke"])
            values, _ = derive(raw)
            wanted = catalog.END_TO_END if trace == 0 else catalog.PER_LAYER
            missing = [m[0] for m in wanted if m[0] not in values]
            good = code == 0 and raw["failed"] == 0 and not missing
            ok &= good
            print(f"smoke {workload:<16} trace={trace} ops={raw['sim']['ops']:.0f} "
                  f"failed={raw['failed']:.0f} missing={missing} {'PASS' if good else 'FAIL'}")
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    in_sync = committed == catalog.benchmark_json()
    ok &= in_sync
    print(f"BENCHMARK.json matches catalog.py: {'PASS' if in_sync else 'FAIL'}")
    print(f"perfbench selftest: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=catalog.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args()
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(catalog.benchmark_json(), indent=2) + "\n")
        return 0
    if args.selftest:
        return selftest()
    if args.workload is None or args.seed is None or args.seconds <= 0:
        parser.error("--workload, --seed and a positive --seconds are required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
