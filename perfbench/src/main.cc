// perfbench: the repository benchmark binary. perfbench/run.py builds it and
// turns its last output line into the benchmark result.
//
//   perfbench --workload table1-loop|table1-exec|stubbyd-zipf --seed N
//             --seconds S [--trace 0|1] [--out-dir DIR]
//   perfbench --workload W --seed N --selfcheck
//
// Prints a human-readable report, then one JSON line
//   {"correct": b, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
// holding every metric the workload computed. --selfcheck runs the
// workload's shortened configuration at 1 thread and at nproc threads and
// fails unless every deterministic metric is identical.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exec/job_runner.h"
#include "harness.h"
#include "optimizer/stubby.h"
#include "service/stubbyd.h"
#include "workloads.h"

using namespace perfbench;

namespace {

const char* Flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (!std::strcmp(argv[i], name)) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], name)) return true;
  }
  return false;
}

bool RunWorkload(const RunConfig& cfg, Results* out) {
  stubby::ThreadPool pool(cfg.threads);
  if (cfg.workload == "table1-loop") {
    RunTable1Loop(cfg, &pool, out);
  } else if (cfg.workload == "table1-exec") {
    RunTable1Exec(cfg, &pool, out);
  } else if (cfg.workload == "stubbyd-zipf") {
    RunStubbydZipf(cfg, &pool, out);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 cfg.workload.c_str());
    return false;
  }
  return true;
}

/// Every workload runs the library defaults; the environment overrides the
/// CLI and the repo's own benches honour (STUBBY_COLUMNAR, STUBBY_BLOOM,
/// STUBBY_REOPT) are never read. Recorded so a result names its settings.
void PrintEffectiveOptions() {
  const stubby::StubbyOptions o;
  const stubby::ExecOptions e;
  const stubby::ServiceOptions s;
  std::printf(
      "options: intra_vertical=%d inter_vertical=%d horizontal=%d "
      "extended_horizontal=%d partition_function=%d configuration=%d "
      "cost_cache=%d reuse_whole_workflow=%d reuse_aware_search=%d "
      "reuse_probe_cache=%d vectorized_exec=%d columnar_storage=%d "
      "reoptimize=%d bloom_transfer=%d | exec vectorized=%d columnar=%d | "
      "service wave_size=%zu queue_capacity=%zu\n",
      o.enable_intra_vertical, o.enable_inter_vertical, o.enable_horizontal,
      o.extended_horizontal, o.enable_partition_function,
      o.enable_configuration, o.enable_cost_cache, o.reuse_whole_workflow,
      o.reuse_aware_search, o.reuse_probe_cache, o.vectorized_exec,
      o.columnar_storage, o.reoptimize, o.bloom_transfer, e.vectorized,
      e.columnar, s.wave_size, s.queue_capacity);
}

void PrintResult(const Results& r) {
  for (const auto& [name, m] : r.metrics()) {
    std::printf("  %-40s %18.9g %s%s\n", name.c_str(), m.value,
                m.unit.c_str(), m.deterministic ? "  (deterministic)" : "");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct && r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics()) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// Runs the shortened configuration at 1 and `threads` threads and compares
/// every deterministic metric bit for bit.
int SelfCheck(RunConfig cfg) {
  cfg.shortened = true;
  cfg.trace = false;
  cfg.seconds = 0;  // one pass
  const int wide = cfg.threads;
  Results narrow_r, wide_r;
  cfg.threads = 1;
  if (!RunWorkload(cfg, &narrow_r)) return 2;
  cfg.threads = wide;
  if (!RunWorkload(cfg, &wide_r)) return 2;

  Results check;
  check.correct = narrow_r.correct && wide_r.correct;
  check.attempted = narrow_r.attempted + wide_r.attempted;
  check.failed = narrow_r.failed + wide_r.failed;
  int compared = 0;
  for (const auto& [name, m] : wide_r.metrics()) {
    if (!m.deterministic) continue;
    auto it = narrow_r.metrics().find(name);
    ++compared;
    if (it == narrow_r.metrics().end() || it->second.value != m.value) {
      check.Fail("1 thread vs " + std::to_string(wide) + " threads: " +
                 name + " differs");
    }
    check.SetExact(name, m.value, m.unit);
  }
  std::printf("selfcheck %s: %d deterministic metrics compared at 1 and %d "
              "threads: %s\n",
              cfg.workload.c_str(), compared, wide,
              check.correct ? "identical" : "DIFFERENT");
  PrintResult(check);
  return check.correct && check.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  const char* workload = Flag(argc, argv, "--workload");
  if (workload == nullptr) {
    std::fprintf(stderr, "usage: perfbench --workload W --seed N --seconds S "
                         "[--trace 0|1] [--out-dir DIR] [--selfcheck]\n");
    return 2;
  }
  cfg.workload = workload;
  if (const char* s = Flag(argc, argv, "--seed")) {
    cfg.seed = std::strtoull(s, nullptr, 10);
  }
  if (const char* s = Flag(argc, argv, "--seconds")) cfg.seconds = std::atof(s);
  if (const char* s = Flag(argc, argv, "--trace")) cfg.trace = std::atoi(s) != 0;
  cfg.threads = stubby::ThreadPool::HardwareThreads();
  if (const char* s = Flag(argc, argv, "--out-dir")) cfg.out_dir = s;

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "threads=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.threads);
  PrintEffectiveOptions();
  if (HasFlag(argc, argv, "--selfcheck")) return SelfCheck(cfg);

  GlobalTracer().set_recording(false);
  Results results;
  if (!RunWorkload(cfg, &results)) return 2;
  results.Set("process.peak_rss_mb", PeakRssMb(), "MB");
  const double attempted = static_cast<double>(results.attempted);
  results.Set("error_rate",
              attempted > 0 ? static_cast<double>(results.failed) / attempted
                            : 1.0,
              "ratio");
  if (cfg.trace) {
    const std::string path = cfg.out_dir + "/trace-" + cfg.workload +
                             "-seed" + std::to_string(cfg.seed) + ".json";
    if (!GlobalTracer().WriteChromeJson(path)) {
      results.Fail("could not write " + path);
    } else {
      std::printf("wrote %zu spans to %s\n", GlobalTracer().events().size(),
                  path.c_str());
    }
    results.Set("trace.spans",
                static_cast<double>(GlobalTracer().events().size()), "count");
  }
  PrintResult(results);
  return 0;
}
