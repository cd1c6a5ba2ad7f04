// Figure 11: speedup over the Baseline achieved by Stubby (all
// transformations), Vertical (intra-/inter-job vertical packing + partition
// function + configuration), and Horizontal (horizontal packing + partition
// function + configuration), for all eight workflows of Table 1.
//
// Flags: --rows N      physical sample rows (default 20000)
//        --flip-phases ablation: apply Horizontal before Vertical in Stubby
//        --threads N   worker threads (default: hardware); workflows run as
//                      concurrent tasks, results are identical at any count

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_common.h"

using namespace stubby;
using namespace stubby::bench;

int main(int argc, char** argv) {
  const int rows = IntFlag(argc, argv, "--rows", 20000);
  const int threads = ThreadsFlag(argc, argv);
  bool flip = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--flip-phases")) flip = true;
  }
  ThreadPool pool(threads);

  std::printf(
      "Figure 11: speedup over Baseline (Pig rules + rules-of-thumb "
      "config)%s\n",
      flip ? " [ablation: horizontal-before-vertical phase order]" : "");
  std::printf("%-6s %10s | %8s %8s %8s\n", "WF", "Baseline", "Stubby",
              "Vertical", "Horizntl");

  const std::vector<std::string> abbrs = AllWorkloadAbbrs();
  struct WorkloadRow {
    std::string line;
    Json row;
  };
  std::vector<WorkloadRow> results(abbrs.size());
  const auto t0 = std::chrono::steady_clock::now();
  RunTasks(&pool, abbrs.size(), [&](size_t i) {
    const std::string& abbr = abbrs[i];
    auto pw = Prepare(abbr, rows);
    STUBBY_CHECK_OK(pw.status());

    auto baseline = PigBaseline(pw->workload.plan);
    STUBBY_CHECK_OK(baseline.status());
    auto t_base = Execute(*pw, *baseline);
    STUBBY_CHECK_OK(t_base.status());

    OptimizeReport stubby_report;
    auto run = [&](bool vertical, bool horizontal,
                   bool keep_report) -> double {
      StubbyOptions opts;
      opts.enable_intra_vertical = vertical;
      opts.enable_inter_vertical = vertical;
      opts.enable_horizontal = horizontal;
      opts.enable_partition_function = true;
      opts.enable_configuration = true;
      opts.flip_phase_order = flip;
      auto report = StubbyOptimizer(opts).Optimize(pw->workload.plan);
      STUBBY_CHECK_OK(report.status());
      auto t = Execute(*pw, report->plan);
      STUBBY_CHECK_OK(t.status());
      if (keep_report) stubby_report = std::move(*report);
      return *t_base / *t;
    };

    double s_stubby = run(true, true, true);
    double s_vertical = run(true, false, false);
    double s_horizontal = run(false, true, false);
    char line[128];
    std::snprintf(line, sizeof(line), "%-6s %9.0fs | %8.2f %8.2f %8.2f\n",
                  abbr.c_str(), *t_base, s_stubby, s_vertical, s_horizontal);
    results[i].line = line;

    Json row = Json::Object();
    row["workload"] = abbr;
    row["baseline_sec"] = *t_base;
    row["stubby_speedup"] = s_stubby;
    row["vertical_speedup"] = s_vertical;
    row["horizontal_speedup"] = s_horizontal;
    row["stubby"] = ReportJson(stubby_report);
    results[i].row = std::move(row);
  });
  const double total_wall = SecondsSince(t0);

  Json rows_json = Json::Array();
  for (WorkloadRow& r : results) {
    std::fputs(r.line.c_str(), stdout);
    rows_json.Append(std::move(r.row));
  }
  std::printf("total: %.3fs at %d threads\n", total_wall, threads);

  Json doc = Json::Object();
  doc["bench"] = "fig11";
  doc["rows"] = rows;
  doc["flip_phase_order"] = flip;
  doc["threads"] = static_cast<uint64_t>(threads);
  doc["total_wall_sec"] = total_wall;
  doc["workloads"] = std::move(rows_json);
  WriteBenchJson("BENCH_FIG11.json", doc);
  return 0;
}
