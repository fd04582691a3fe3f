// perfbench: runs one workload of the repository benchmark in this process,
// single-threaded, and prints one JSON object with every raw reading on its
// last line. run.py builds this binary, turns the readings into the
// benchmark's metrics and prints the result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-dir DIR] [--smoke]
//   perfbench --oracle-selftest
//
// Untraced (--trace 0): repetitions one after another until S seconds have
// passed (at least three). Each builds the system, drives it to the
// workload's fixed simulated horizon and runs the oracles; its host run
// time is kept, and it is followed by a burst of set-up-only samples and a
// timing of the reference kernel (reference.h).
// Traced (--trace 1): untraced repetitions for half the time, then one
// repetition with spans around every call into the system and with
// GroupConfig::observability on. Spans are written to --spans-dir.
//
// Determinism gate: the simulated readings of every repetition, traced or
// not, must be bit-identical; a mismatch is a failure.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cpp/bench.h"
#include "cpp/reference.h"
#include "src/mem/pool.h"

namespace perfbench {

int RunOracleSelftest();

namespace {

struct Workload {
  const char* name;
  WorkloadFn fn;
};

constexpr Workload kWorkloads[] = {
    {"causal-burst", RunCausalBurst},
    {"causal-alltoall", RunCausalAllToAll},
    {"total-churn", RunTotalChurn},
    {"txn-contention", RunTxnContention},
};

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

void AppendNumber(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void AppendMap(std::string& out, const std::map<std::string, double>& m) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : m) {
    if (!first) {
      out += ',';
    }
    first = false;
    AppendEscaped(out, key);
    out += ':';
    AppendNumber(out, value);
  }
  out += '}';
}

void AppendList(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendNumber(out, values[i]);
  }
  out += ']';
}

// Names of the simulated readings that differ between two repetitions.
std::vector<std::string> Diff(const std::map<std::string, double>& a,
                              const std::map<std::string, double>& b) {
  std::vector<std::string> out;
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    if (it == b.end() || std::memcmp(&it->second, &value, sizeof(double)) != 0) {
      out.push_back(key);
    }
  }
  for (const auto& [key, value] : b) {
    if (a.count(key) == 0) {
      out.push_back(key);
    }
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

RepResult RunRep(WorkloadFn fn, const RunContext& ctx) {
  // Every repetition starts from an empty pool, so its pool counters are a
  // function of the seed like every other simulated reading.
  mem::SizeClassPool::Instance().TrimFreeLists();
  return fn(ctx);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-dir DIR] [--smoke]\n"
               "       perfbench --oracle-selftest\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build without NDEBUG (not Release)\n");
  return 2;
#endif
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_dir;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--oracle-selftest") {
      return RunOracleSelftest();
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--spans-dir" && has_value) {
      spans_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  WorkloadFn fn = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      fn = w.fn;
    }
  }
  if (fn == nullptr || (trace != 0 && trace != 1) || seconds <= 0) {
    return Usage();
  }

  RunContext ctx;
  ctx.seed = seed;
  // The smoke horizon is short enough for the self-test, long enough that
  // every layer does some work.
  ctx.horizon_scale = smoke ? 0.25 : 1.0;
  const size_t min_reps = smoke ? 1 : 3;
  const double untraced_budget = trace == 1 ? seconds / 2 : seconds;

  // Set-up is short next to a repetition, so it gets samples of its own: a
  // burst of set-ups that stop before the run follows every repetition, so
  // the samples spread over the whole run as the repetitions do. The
  // reference kernel runs after every repetition too, so each repetition
  // has a machine-speed reading on either side (the first only after it).
  // The memory high-water is taken after the first repetition, before the
  // kernel's own allocations can count.
  constexpr int kSetupSamplesPerRep = 20;
  RunContext setup_ctx = ctx;
  setup_ctx.setup_only = true;
  std::vector<RepResult> reps;
  std::vector<double> setup_s;
  std::vector<double> ref_s;
  double peak_rss_mb = 0;
  const Clock::time_point start = Clock::now();
  while (reps.size() < min_reps || SecondsSince(start) < untraced_budget) {
    reps.push_back(RunRep(fn, ctx));
    if (reps.size() == 1) {
      peak_rss_mb = PeakRssMb();
    }
    for (int i = 0; i < (smoke ? 1 : kSetupSamplesPerRep); ++i) {
      setup_s.push_back(RunRep(fn, setup_ctx).setup_s);
    }
    ref_s.push_back(TimeReferenceKernel());
  }

  uint64_t failed = 0;
  uint64_t attempted = 0;
  std::vector<std::string> problems;
  for (const RepResult& rep : reps) {
    failed += rep.failed;
    attempted += rep.attempted;
  }
  for (const std::string& v : reps.front().violations) {
    problems.push_back(v);
  }
  auto gate = [&](const RepResult& rep, const char* what) {
    const std::vector<std::string> diff = Diff(reps.front().sim, rep.sim);
    if (!diff.empty()) {
      ++failed;
      std::string msg = std::string("determinism: ") + what + " differs from repetition 1 in";
      for (const std::string& key : diff) {
        msg += " " + key;
      }
      problems.push_back(msg);
    }
  };
  for (size_t i = 1; i < reps.size(); ++i) {
    gate(reps[i], ("repetition " + std::to_string(i + 1)).c_str());
  }

  std::string out = "{";
  auto field = [&out](const char* key) {
    if (out.size() > 1) {
      out += ',';
    }
    AppendEscaped(out, key);
    out += ':';
  };

  std::vector<double> run_s;
  for (const RepResult& rep : reps) {
    run_s.push_back(rep.run_s);
  }
  field("setup_s");
  AppendList(out, setup_s);
  field("run_s");
  AppendList(out, run_s);
  field("ref_s");
  AppendList(out, ref_s);

  if (trace == 1) {
    Tracer tracer;
    ctx.tracer = &tracer;
    const RepResult traced = RunRep(fn, ctx);
    const double ref_after = TimeReferenceKernel();
    failed += traced.failed;
    attempted += traced.attempted;
    gate(traced, "the traced run");
    const std::vector<Tracer::Totals> totals = tracer.Summarize();
    std::map<std::string, double> host = traced.observed;
    host["traced.run_s"] = traced.run_s;
    host["traced.ref_s"] = (ref_s.back() + ref_after) / 2;
    host["sim.step_self_s"] = totals[Tracer::kStep].self_s;
    host["catocs.send_s"] = totals[Tracer::kSend].total_s;
    host["catocs.send_spans"] = static_cast<double>(totals[Tracer::kSend].count);
    host["txn.submit_s"] = totals[Tracer::kSubmit].total_s;
    host["txn.submit_spans"] = static_cast<double>(totals[Tracer::kSubmit].count);
    for (int n = 0; n < Tracer::kNumNames; ++n) {
      const std::string name = Tracer::NameOf(static_cast<Tracer::Name>(n));
      host["spans." + name + ".count"] = static_cast<double>(totals[n].count);
      host["spans." + name + ".self_s"] = totals[n].self_s;
    }
    field("traced");
    AppendMap(out, host);
    if (!spans_dir.empty()) {
      const std::string path =
          spans_dir + "/" + workload + "-seed" + std::to_string(seed) + ".spans";
      if (!tracer.WriteTo(path)) {
        problems.push_back("spans: cannot write " + path);
        ++failed;
      }
    }
  }

  field("sim");
  AppendMap(out, reps.front().sim);
  field("peak_rss_mb");
  AppendNumber(out, peak_rss_mb);
  field("ref_nominal_s");
  AppendNumber(out, kReferenceNominalS);
  field("attempted");
  AppendNumber(out, static_cast<double>(attempted));
  field("failed");
  AppendNumber(out, static_cast<double>(failed));
  field("problems");
  out += '[';
  for (size_t i = 0; i < problems.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    AppendEscaped(out, problems[i]);
  }
  out += ']';
  field("compiler");
#ifdef __clang__
  AppendEscaped(out, "clang " __clang_version__);
#else
  AppendEscaped(out, "g++ " __VERSION__);
#endif
  field("build_type");
  AppendEscaped(out, "release (NDEBUG)");
  out += '}';
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  std::printf("%s\n", out.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
