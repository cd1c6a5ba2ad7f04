// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// and optimizer: row handling, partitioning, pipeline execution, the
// cluster scheduler, plan signatures, what-if costing, and RRS — the inner
// loops that bound the optimizer overhead reported in Figure 13.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "bench_common.h"
#include "common/rng.h"
#include "cost/schedule.h"
#include "cost/whatif.h"
#include "exec/workflow_runner.h"
#include "exec/wrappers.h"
#include "mr/partitioner.h"
#include "optimizer/configuration.h"
#include "optimizer/rrs.h"
#include "optimizer/transform.h"
#include "optimizer/unit.h"
#include "profiler/profiler.h"
#include "optimizer/stubby.h"
#include "workloads/builder.h"
#include "workloads/registry.h"
#include "workloads/udfs.h"

using namespace stubby;

namespace {

std::vector<Row> MakeRows(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rows.push_back(
        Row{rng.NextInt(0, 999), rng.NextInt(0, 99), rng.NextDouble(0, 100)});
  }
  return rows;
}

void BM_RowSerializedSize(benchmark::State& state) {
  std::vector<Row> rows = MakeRows(1024, 1);
  for (auto _ : state) {
    uint64_t total = 0;
    for (const Row& r : rows) total += r.SerializedSize();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RowSerializedSize);

void BM_HashPartitioner(benchmark::State& state) {
  Schema schema({"A", "B", "V"});
  PartitionSpec spec = PartitionSpec::DefaultFor({"A", "B"});
  Partitioner p = *Partitioner::Make(spec, schema);
  std::vector<Row> rows = MakeRows(1024, 2);
  for (auto _ : state) {
    int acc = 0;
    for (const Row& r : rows) acc += p.PartitionOf(r, 100);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_HashPartitioner);

void BM_RangePartitioner(benchmark::State& state) {
  Schema schema({"A", "B", "V"});
  PartitionSpec spec;
  spec.type = PartitionType::kRange;
  spec.partition_fields = {"A"};
  spec.sort_fields = {"A"};
  for (int i = 10; i < 1000; i += 10) spec.split_points.push_back(Row{i});
  Partitioner p = *Partitioner::Make(spec, schema);
  std::vector<Row> rows = MakeRows(1024, 3);
  for (auto _ : state) {
    int acc = 0;
    for (const Row& r : rows) acc += p.PartitionOf(r, 100);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RangePartitioner);

void BM_PipelineMapReduce(benchmark::State& state) {
  Schema schema({"A", "B", "V"});
  std::vector<Stage> stages = {
      Stage::Map(FilterRangeMap("f", schema, "V", 0, 80)),
      Stage::Reduce(AggReduce("agg", schema, {"A"}, {{"V", AggOp::kSum, "S"}}),
                    {"A"}),
  };
  std::vector<Row> rows = MakeRows(static_cast<int>(state.range(0)), 4);
  std::vector<size_t> idx = {0};
  std::sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    return CompareOnFields(a, b, idx) < 0;
  });
  for (auto _ : state) {
    VectorEmitter out;
    auto runner = PipelineRunner::Make(stages, schema, &out, nullptr);
    for (const Row& r : rows) (*runner)->Emit(r);
    (*runner)->Finish();
    benchmark::DoNotOptimize(out.rows().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipelineMapReduce)->Arg(1024)->Arg(16384);

void BM_ClusterSchedule(benchmark::State& state) {
  ClusterSpec cluster;
  std::vector<ScheduledJob> jobs;
  for (int i = 0; i < 8; ++i) {
    ScheduledJob j;
    j.id = "J" + std::to_string(i);
    if (i > 0) j.deps = {"J" + std::to_string(i - 1)};
    j.times.map_tasks = static_cast<int>(state.range(0));
    j.times.reduce_tasks = 100;
    j.times.map_avg_sec = 10;
    j.times.map_max_sec = 12;
    j.times.reduce_avg_sec = 30;
    j.times.reduce_max_sec = 45;
    j.times.job_overhead_sec = 6;
    jobs.push_back(std::move(j));
  }
  for (auto _ : state) {
    auto res = SimulateCluster(jobs, cluster);
    benchmark::DoNotOptimize(res->makespan_sec);
  }
}
BENCHMARK(BM_ClusterSchedule)->Arg(500)->Arg(5000);

void BM_Rrs(benchmark::State& state) {
  for (auto _ : state) {
    RecursiveRandomSearch rrs(RrsOptions{}, 42);
    auto [point, value] = rrs.Minimize(
        8,
        [](const std::vector<double>& x) {
          double s = 0;
          for (double v : x) s += (v - 0.3) * (v - 0.3);
          return s;
        },
        {});
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_Rrs);

// Whole-plan costing (the optimizer's inner loop) on the profiled IR
// workload.
void BM_WhatIfCostIR(benchmark::State& state) {
  WorkloadOptions options;
  options.sample_rows = 5000;
  auto w = MakeWorkload("IR", options);
  Profiler profiler(options.cluster);
  Dfs dfs = w->dfs;
  STUBBY_CHECK_OK(profiler.ProfilePlan(&w->plan, &dfs));
  WhatIfEngine whatif(options.cluster);
  for (auto _ : state) {
    CostEstimate est = whatif.Cost(w->plan);
    benchmark::DoNotOptimize(est.cost);
  }
}
BENCHMARK(BM_WhatIfCostIR);

// One RRS point of BR's largest optimization unit (the most jobs), every
// tunable job at its rule-of-thumb configuration.
struct RrsPoint {
  Plan plan;
  std::vector<std::string> tuned;
  std::vector<JobConfig> configs;
};

const RrsPoint& BrRrsPoint() {
  static const RrsPoint point = [] {
    WorkloadOptions options;
    options.sample_rows = 5000;
    auto w = MakeWorkload("BR", options);
    STUBBY_CHECK_OK(w.status());
    Profiler profiler(options.cluster);
    Dfs dfs = w->dfs;
    STUBBY_CHECK_OK(profiler.ProfilePlan(&w->plan, &dfs));
    RrsPoint p{w->plan, {}, {}};
    std::vector<std::string> largest;
    std::set<std::string> processed;
    while (auto unit = NextUnit(p.plan, processed)) {
      if (unit->AllJobs().size() > largest.size()) largest = unit->AllJobs();
      for (const auto& id : unit->producers) processed.insert(id);
    }
    for (const std::string& id : largest) {
      const JobVertex& job = **p.plan.GetJob(id);
      if (SpaceForJob(job, p.plan.cluster()).size() == 0) continue;
      p.tuned.push_back(id);
      p.configs.push_back(EffectiveConfig(
          job, RuleOfThumbConfig(job, p.plan.cluster(), &p.plan)));
    }
    return p;
  }();
  return point;
}

// Arg 0 prices the point through the plan pricer compiled once for the
// subplan, as the unit search does; arg 1 prices it through Cost on a plan
// copy with the configurations applied.
void BM_RrsPointBR(benchmark::State& state) {
  const RrsPoint& point = BrRrsPoint();
  WhatIfEngine whatif(point.plan.cluster());
  if (state.range(0) == 0) {
    auto pricer = whatif.Compile(point.plan, point.tuned);
    STUBBY_CHECK_OK(pricer.status());
    for (auto _ : state) {
      CostEstimate est = whatif.Cost(*pricer, point.configs);
      benchmark::DoNotOptimize(est.cost);
    }
  } else {
    for (auto _ : state) {
      Plan applied = point.plan;
      for (size_t i = 0; i < point.tuned.size(); ++i) {
        STUBBY_CHECK_OK(
            ApplyConfiguration(&applied, point.tuned[i], point.configs[i]));
      }
      CostEstimate est = whatif.Cost(applied);
      benchmark::DoNotOptimize(est.cost);
    }
  }
  state.counters["tuned_jobs"] = static_cast<double>(point.tuned.size());
}
BENCHMARK(BM_RrsPointBR)->ArgName("applied_copy")->Arg(0)->Arg(1);

void BM_PlanSignature(benchmark::State& state) {
  WorkloadOptions options;
  options.sample_rows = 2000;
  auto w = MakeWorkload("BR", options);
  for (auto _ : state) {
    std::string sig = PlanSignature(w->plan);
    benchmark::DoNotOptimize(sig.size());
  }
}
BENCHMARK(BM_PlanSignature);

// Executor and optimizer wall time at 1/2/4/8 worker threads on BR.
// Results must be bit-identical at every thread count (the determinism
// invariant of the task-parallel core); the speedups depend on the host's
// core count and are recorded, not gated here.
bool RunThreadScalingStudy(Json* doc) {
  using namespace stubby::bench;
  std::printf("\nThread-scaling study (BR): threads vs wall time\n");
  auto pw = Prepare("BR", 6000);
  STUBBY_CHECK_OK(pw.status());
  auto baseline = PigBaseline(pw->workload.plan);
  STUBBY_CHECK_OK(baseline.status());
  std::printf("  hardware threads: %d\n", ThreadPool::HardwareThreads());

  bool identical = true;
  double exec_wall_1 = 0.0;
  double opt_wall_1 = 0.0;
  double ref_makespan = 0.0;
  double ref_cost = 0.0;
  std::string ref_sig;
  Json points = Json::Array();
  for (int t : {1, 2, 4, 8}) {
    ThreadPool pool(t);
    double exec_wall = 0.0;
    double makespan = 0.0;
    constexpr int kReps = 3;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      auto m = Execute(*pw, *baseline, &pool);
      STUBBY_CHECK_OK(m.status());
      const double wall = SecondsSince(t0);
      if (rep == 0 || wall < exec_wall) exec_wall = wall;
      makespan = *m;
    }
    auto report = RunStubbyReport(*pw, true, true, 17, &pool);
    STUBBY_CHECK_OK(report.status());
    const double opt_wall = report->optimization_time_sec;
    const std::string sig = PlanSignature(report->plan);

    if (t == 1) {
      exec_wall_1 = exec_wall;
      opt_wall_1 = opt_wall;
      ref_makespan = makespan;
      ref_cost = report->estimated_cost;
      ref_sig = sig;
    } else if (makespan != ref_makespan || report->estimated_cost != ref_cost ||
               sig != ref_sig) {
      identical = false;
    }
    const double exec_speedup = exec_wall > 0 ? exec_wall_1 / exec_wall : 1.0;
    const double opt_speedup = opt_wall > 0 ? opt_wall_1 / opt_wall : 1.0;
    std::printf(
        "  threads=%d  executor %.3fs (%.2fx)  optimizer %.3fs (%.2fx)\n", t,
        exec_wall, exec_speedup, opt_wall, opt_speedup);

    Json point = Json::Object();
    point["threads"] = static_cast<uint64_t>(t);
    point["executor_wall_sec"] = exec_wall;
    point["executor_speedup"] = exec_speedup;
    point["optimizer_wall_sec"] = opt_wall;
    point["optimizer_speedup"] = opt_speedup;
    points.Append(std::move(point));
  }
  std::printf("  results across thread counts: %s\n",
              identical ? "IDENTICAL" : "MISMATCH");

  Json study = Json::Object();
  study["workload"] = "BR";
  study["hardware_threads"] =
      static_cast<uint64_t>(ThreadPool::HardwareThreads());
  study["identical_results"] = identical;
  study["points"] = std::move(points);
  (*doc)["thread_scaling"] = std::move(study);
  return identical;
}

// Work stealing on a skewed batch. The batch mimics a BR unit search: most
// candidates are light, a few are an order of magnitude heavier (the
// whole-graph repack candidates), and the round-robin deal concentrates
// the heavy chunks on two deques — the shape stealing exists for. Each
// task prices the profiled BR plan through a private what-if engine
// `reps` times, so the kernel is the optimizer's real inner loop, not a
// spin. Reports wall time, steal counts, and idle time (threads x wall -
// summed busy) at 1/2/4/8 threads; a record, not a gate.
bool RunSkewedBatchStudy(Json* doc) {
  using namespace stubby::bench;
  std::printf("\nSkewed-batch study (BR-style mixed candidate sizes)\n");
  auto pw = Prepare("BR", 6000);
  STUBBY_CHECK_OK(pw.status());
  const Plan& plan = pw->workload.plan;

  constexpr size_t kTasks = 96;
  constexpr uint64_t kHeavyReps = 24;
  std::vector<uint64_t> reps(kTasks, 1);
  for (size_t i = 0; i < kTasks; i += 12) reps[i] = kHeavyReps;

  Json points = Json::Array();
  for (int t : {1, 2, 4, 8}) {
    ThreadPool pool(t);
    double wall = 0.0;
    constexpr int kBenchReps = 3;
    for (int rep = 0; rep < kBenchReps; ++rep) {
      pool.ResetStats();
      const auto t0 = std::chrono::steady_clock::now();
      pool.ParallelFor(kTasks, [&](size_t i) {
        WhatIfEngine whatif(plan.cluster());
        for (uint64_t r = 0; r < reps[i]; ++r) {
          CostEstimate est = whatif.Cost(plan);
          benchmark::DoNotOptimize(est.cost);
        }
      });
      const double w = SecondsSince(t0);
      if (rep == 0 || w < wall) wall = w;
    }
    const ThreadPool::Stats stats = pool.stats();  // last rep's counters
    const double busy_sec = static_cast<double>(stats.busy_usec) / 1e6;
    const double idle_sec = std::max(0.0, wall * t - busy_sec);
    const uint64_t steals = stats.steals;
    std::printf("  threads=%d  wall %.3fs  steals %llu  idle %.3fs\n", t,
                wall, (unsigned long long)steals, idle_sec);

    Json point = Json::Object();
    point["threads"] = static_cast<uint64_t>(t);
    point["wall_sec"] = wall;
    point["steals"] = steals;
    point["busy_sec"] = busy_sec;
    point["idle_sec"] = idle_sec;
    points.Append(std::move(point));
  }

  Json study = Json::Object();
  study["workload"] = "BR";
  study["tasks"] = static_cast<uint64_t>(kTasks);
  study["heavy_reps"] = kHeavyReps;
  study["hardware_threads"] =
      static_cast<uint64_t>(ThreadPool::HardwareThreads());
  study["points"] = std::move(points);
  (*doc)["skewed_batch"] = std::move(study);
  return true;
}

// Bloom predicate-transfer study: a selective inner join (build side
// filtered to 10% of the key space, probe side 4x the build's logical
// bytes) optimized with bloom_transfer off vs on and executed in the
// simulator. The gate requires bit-identical terminal outputs on vs off,
// the transform actually winning the search, and a shuffle-byte reduction
// of at least 30%.
bool RunBloomProbeStudy(Json* doc) {
  using namespace stubby::bench;
  std::printf("\nBloom-probe study (predicate transfer on a selective join)\n");

  constexpr uint64_t kStudyGB = 1ull << 30;
  auto make_join = [&]() -> Result<WorkflowFactory> {
    ClusterSpec cluster;
    WorkflowFactory f(cluster);
    Rng data_rng(77);
    Schema base({"K", "G", "V"});
    auto rows_of = [&](int n) {
      std::vector<Row> rows;
      for (int i = 0; i < n; ++i) {
        rows.push_back(Row{data_rng.NextInt(0, 199),
                           data_rng.NextInt(0, 9),
                           data_rng.NextInt(0, 99)});
      }
      return rows;
    };
    STUBBY_RETURN_NOT_OK(
        f.AddBase("R", base, Layout{}, 4, rows_of(400), kStudyGB));
    STUBBY_RETURN_NOT_OK(
        f.AddBase("S", base, Layout{}, 4, rows_of(3000), 4 * kStudyGB));
    Schema tagged({"K", "G", "V", "T"});
    std::vector<AggSpec> aggs = {{"V", AggOp::kSum, "BS"}};
    STUBBY_RETURN_NOT_OK(
        f.AddDataset("OUT", AggOutputSchema({"K"}, aggs), true));
    WorkflowFactory::JobDef j;
    j.id = "JB";
    j.inputs = {
        In("R", {Stage::Map(FilterRangeMap("filter_r", base, "K", 40, 60)),
                 Stage::Map(AppendConstMap("tag_r", base, "T",
                                           Value(int64_t{0})))}),
        In("S", {Stage::Map(AppendConstMap("tag_s", base, "T",
                                           Value(int64_t{1})))})};
    j.map_output_schema = tagged;
    j.reduce_stages = {Stage::Reduce(
        InnerJoinReduce("join_jb", tagged, {"K"}, "T", {0, 1}, aggs),
        {"K"})};
    JoinAnnotation ja;
    ja.filterable_inputs = {0, 1};
    j.join_ann = ja;
    FilterAnnotation fa;
    fa.field = "K";
    fa.lo = 40;
    fa.hi = 60;
    j.filter_ann = fa;
    j.output = "OUT";
    STUBBY_RETURN_NOT_OK(f.AddJob(std::move(j)));
    STUBBY_RETURN_NOT_OK(f.plan().Validate());
    return f;
  };
  auto f = make_join();
  STUBBY_CHECK_OK(f.status());
  Profiler profiler(ClusterSpec{});
  Dfs profile_dfs = f->dfs();
  STUBBY_CHECK_OK(profiler.ProfilePlan(&f->plan(), &profile_dfs));

  StubbyOptions on_opts;
  on_opts.bloom_transfer = true;
  auto off_report = StubbyOptimizer(StubbyOptions{}).Optimize(f->plan());
  auto on_report = StubbyOptimizer(on_opts).Optimize(f->plan());
  STUBBY_CHECK_OK(off_report.status());
  STUBBY_CHECK_OK(on_report.status());
  bool e2e_applied = false;
  for (const std::string& t : on_report->applied) {
    if (t.find("bloom transfer") != std::string::npos) e2e_applied = true;
  }

  auto run = [&](const Plan& plan, uint64_t* shuffle, double* makespan) {
    Dfs dfs = f->dfs();
    WorkflowRunner runner(plan.cluster());
    auto flow = runner.Run(plan, &dfs);
    STUBBY_CHECK_OK(flow.status());
    *shuffle = 0;
    for (const JobDataflow& jd : flow->jobs) *shuffle += jd.map_output_bytes;
    *makespan = flow->makespan_sec;
    auto out = dfs.Get("OUT");
    STUBBY_CHECK_OK(out.status());
    std::vector<Row> rows = (*out)->AllRows();
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  uint64_t off_shuffle = 0;
  uint64_t on_shuffle = 0;
  double off_makespan = 0.0;
  double on_makespan = 0.0;
  std::vector<Row> off_rows = run(off_report->plan, &off_shuffle,
                                  &off_makespan);
  std::vector<Row> on_rows = run(on_report->plan, &on_shuffle, &on_makespan);
  const bool e2e_identical = RowsBitIdentical(off_rows, on_rows);
  const double reduction =
      off_shuffle > 0
          ? 1.0 - static_cast<double>(on_shuffle) /
                      static_cast<double>(off_shuffle)
          : 0.0;
  std::printf(
      "  selective join: transform %s, outputs bit-identical %s\n"
      "  shuffle bytes %llu -> %llu (%.1f%% cut), simulated makespan"
      " %.1fs -> %.1fs\n",
      e2e_applied ? "applied" : "NOT applied", e2e_identical ? "YES" : "NO",
      static_cast<unsigned long long>(off_shuffle),
      static_cast<unsigned long long>(on_shuffle), 100.0 * reduction,
      off_makespan, on_makespan);
  const bool gate = e2e_applied && e2e_identical && reduction >= 0.30;
  std::printf("  gate (applied, outputs identical, cut >= 30%%): %s\n",
              gate ? "PASS" : "FAIL");

  Json study = Json::Object();
  study["e2e_applied"] = e2e_applied;
  study["e2e_outputs_identical"] = e2e_identical;
  study["shuffle_bytes_off"] = off_shuffle;
  study["shuffle_bytes_on"] = on_shuffle;
  study["shuffle_reduction"] = reduction;
  study["makespan_off_sec"] = off_makespan;
  study["makespan_on_sec"] = on_makespan;
  (*doc)["bloom_probe"] = std::move(study);
  return gate;
}

// Comma-separated allowlist in STUBBY_MICROBENCH_STUDIES limits which
// studies run (unset or empty = all) — CI legs use it to produce
// BENCH_MICRO.json without paying for every study.
bool StudyEnabled(const char* name) {
  const char* filter = std::getenv("STUBBY_MICROBENCH_STUDIES");
  if (filter == nullptr || *filter == '\0') return true;
  return std::string(filter).find(name) != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  Json doc = Json::Object();
  doc["bench"] = "microbench";
  bool ok = true;
  if (StudyEnabled("thread_scaling")) ok = RunThreadScalingStudy(&doc) && ok;
  if (StudyEnabled("skewed_batch")) ok = RunSkewedBatchStudy(&doc) && ok;
  if (StudyEnabled("bloom_probe")) ok = RunBloomProbeStudy(&doc) && ok;
  stubby::bench::WriteBenchJson("BENCH_MICRO.json", doc);
  return ok ? 0 : 1;
}
