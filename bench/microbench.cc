// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// and optimizer: row handling, partitioning, pipeline execution, the
// cluster scheduler, plan signatures, what-if costing, and RRS — the inner
// loops that bound the optimizer overhead reported in Figure 13.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "common/rng.h"
#include "cost/cost_cache.h"
#include "cost/schedule.h"
#include "cost/whatif.h"
#include "dfs/dataset.h"
#include "exec/workflow_runner.h"
#include "exec/wrappers.h"
#include "mr/bloom_filter.h"
#include "mr/partitioner.h"
#include "optimizer/rrs.h"
#include "optimizer/transform.h"
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

// Same costing loop with the memo attached: after the first iteration every
// Cost call is a whole-plan cache hit.
void BM_WhatIfCostIRCached(benchmark::State& state) {
  WorkloadOptions options;
  options.sample_rows = 5000;
  auto w = MakeWorkload("IR", options);
  Profiler profiler(options.cluster);
  Dfs dfs = w->dfs;
  STUBBY_CHECK_OK(profiler.ProfilePlan(&w->plan, &dfs));
  WhatIfEngine whatif(options.cluster);
  CostCache cache;
  whatif.set_cache(&cache);
  for (auto _ : state) {
    CostEstimate est = whatif.Cost(w->plan);
    benchmark::DoNotOptimize(est.cost);
  }
}
BENCHMARK(BM_WhatIfCostIRCached);

// Whole-plan content digest (the costing-cache key) on the profiled BR
// workload — the per-evaluation overhead the memo adds on a miss.
void BM_PlanCostDigest(benchmark::State& state) {
  WorkloadOptions options;
  options.sample_rows = 5000;
  auto w = MakeWorkload("BR", options);
  Profiler profiler(options.cluster);
  Dfs dfs = w->dfs;
  STUBBY_CHECK_OK(profiler.ProfilePlan(&w->plan, &dfs));
  for (auto _ : state) {
    CostKey key = PlanCostDigest(w->plan);
    benchmark::DoNotOptimize(key.first);
  }
}
BENCHMARK(BM_PlanCostDigest);

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

// Cache-on vs. cache-off optimizer runs on the BR workflow (the paper's
// Figure 1 running example): verifies transparency and reports how much of
// the costing work the memo eliminated.
bool RunCostCacheStudy(Json* doc) {
  using namespace stubby::bench;
  std::printf("\nCost-cache study (BR, the Figure 1 running example)\n");
  auto pw = Prepare("BR", 6000);
  STUBBY_CHECK_OK(pw.status());

  auto off = RunStubbyReport(*pw, true, true, 17, /*enable_cache=*/false);
  STUBBY_CHECK_OK(off.status());
  auto on = RunStubbyReport(*pw, true, true, 17, /*enable_cache=*/true);
  STUBBY_CHECK_OK(on.status());

  const bool transparent =
      off->estimated_cost == on->estimated_cost &&
      PlanSignature(off->plan) == PlanSignature(on->plan) &&
      off->applied == on->applied;
  const double off_full = static_cast<double>(off->costing.full_predictions);
  const double on_full = static_cast<double>(
      std::max<uint64_t>(1, on->costing.full_predictions));
  const double reduction = off_full / on_full;

  std::printf("  cache off: %s\n", off->costing.ToString().c_str());
  std::printf("  cache on : %s\n", on->costing.ToString().c_str());
  std::printf("  transparency (plan, cost, applied): %s\n",
              transparent ? "IDENTICAL" : "MISMATCH");
  std::printf("  full-plan dataflow predictions: %.0f -> %llu (%.1fx fewer)\n",
              off_full, (unsigned long long)on->costing.full_predictions,
              reduction);
  std::printf("  optimizer wall time: %.3fs -> %.3fs\n",
              off->optimization_time_sec, on->optimization_time_sec);

  Json study = Json::Object();
  study["workload"] = "BR";
  study["transparent"] = transparent;
  study["full_prediction_reduction"] = reduction;
  study["cache_off"] = ReportJson(*off);
  study["cache_on"] = ReportJson(*on);
  (*doc)["cost_cache"] = std::move(study);
  return transparent && reduction >= 2.0;
}

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
    auto report = RunStubbyReport(*pw, true, true, 17, true, &pool);
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

// Columnar vs record-at-a-time execution of the executor's vectorizable
// hot path: an all-map, stateless pipeline (filter / append-const /
// project / sample) over wide rows with string payloads, run per-chunk the
// way map tasks run it. The record path re-materializes every row at every
// stage; the batch path mutates structure (selection narrowing, column
// pointer shuffles, broadcast constants) and materializes survivors once.
// Three rates are measured at 1/2/4/8 threads:
//   kernel: pipeline execution given each representation (row emit loop
//           vs batch Run + survivor materialization) — the region the
//           vectorized path replaces;
//   end-to-end: the full columnar storage boundary — zero-copy batch view
//           of a column-native PartitionData in, Run, column-native
//           PartitionData (with byte accounting) out. This is what a map
//           task actually executes with columnar_storage on;
//   row-store end-to-end: kernel plus the per-chunk rows->columns and
//           columns->rows conversions the executor paid before
//           column-native storage (diagnostic, not gated).
// The gate requires bit-identical outputs and counters plus >= 5x kernel
// AND >= 5x end-to-end throughput at every thread count the host can
// actually run in parallel (t <= hardware threads; oversubscribed points
// are recorded, not gated).
bool RunVectorizedExecStudy(Json* doc) {
  using namespace stubby::bench;
  std::printf("\nVectorized-exec study (columnar map pipeline vs row path)\n");

  Schema schema0({"A", "B", "C", "D", "E", "F", "V", "W"});
  Schema schema1 = schema0.Concat(Schema({"T"}));
  Schema schema2({"A", "B", "C", "D", "E", "F", "V", "T"});
  Schema schema2r = schema2.Concat(Schema({"R"}));
  Schema schema3({"A", "C", "D", "F", "V", "T", "R"});
  Schema schema3u = schema3.Concat(Schema({"U"}));
  Schema schema4({"A", "C", "D", "V", "T", "U"});
  std::vector<Stage> stages = {
      Stage::Map(FilterRangeMap("f1", schema0, "V", 5.0, 95.0)),
      Stage::Map(AppendConstMap("a1", schema0, "T", Value(int64_t{7}))),
      Stage::Map(ProjectMap("p1", schema1,
                            {"A", "B", "C", "D", "E", "F", "V", "T"})),
      Stage::Map(AppendConstMap("a2", schema2, "R", Value(2.0))),
      Stage::Map(ProjectMap("p2", schema2r,
                            {"A", "C", "D", "F", "V", "T", "R"})),
      Stage::Map(FilterRangeMap("f2", schema3, "D", 10.0, 90.0)),
      Stage::Map(AppendConstMap("a3", schema3, "U", Value(1.5))),
      Stage::Map(ProjectMap("p3", schema3u, {"A", "C", "D", "V", "T", "U"})),
      Stage::Map(SampleMap("s1", schema4, 2, {"A", "C", "V"})),
  };
  if (!BatchPipelineRunner::Eligible(stages)) {
    std::printf("  pipeline unexpectedly ineligible for batching\n");
    return false;
  }

  // 64 map-task-sized chunks; the same split feeds both paths.
  constexpr size_t kChunks = 64;
  constexpr size_t kChunkRows = 4096;
  Rng rng(31);
  std::vector<std::vector<Row>> chunks(kChunks);
  for (auto& chunk : chunks) {
    chunk.reserve(kChunkRows);
    for (size_t i = 0; i < kChunkRows; ++i) {
      chunk.push_back(Row{
          rng.NextInt(0, 999), rng.NextInt(0, 99),
          "user_" + std::to_string(rng.NextInt(0, 5000)),
          rng.NextDouble(0, 100), rng.NextDouble(0, 1),
          "tag_" + std::to_string(rng.NextInt(0, 50)),
          rng.NextDouble(0, 100), rng.NextInt(0, 9)});
    }
  }
  const uint64_t total_rows = kChunks * kChunkRows;

  auto run_row_chunk = [&](const std::vector<Row>& chunk,
                           PipelineCounters* counters) {
    VectorEmitter out;
    auto runner = PipelineRunner::Make(stages, schema0, &out, nullptr);
    STUBBY_CHECK_OK(runner.status());
    for (const Row& r : chunk) (*runner)->Emit(r);
    (*runner)->Finish();
    if (counters != nullptr) *counters = (*runner)->counters();
    return std::move(out.rows());
  };
  auto run_batch_chunk = [&](const std::vector<Row>& chunk,
                             PipelineCounters* counters) {
    BatchPipelineRunner runner = BatchPipelineRunner::Make(stages);
    RowBatch out = runner.Run(RowBatch::FromRows(chunk, schema0.size()));
    if (counters != nullptr) *counters = runner.counters();
    return out.ToRows();
  };

  // Column-native storage, as the executor stores it: the end-to-end leg
  // scans these as zero-copy batch views and stores its output the same
  // way.
  std::vector<PartitionData> stored;
  stored.reserve(kChunks);
  for (const auto& chunk : chunks) {
    stored.push_back(
        PartitionData::FromBatch(RowBatch::FromRows(chunk, schema0.size())));
  }
  auto run_columnar_chunk = [&](const PartitionData& pd) {
    BatchPipelineRunner runner = BatchPipelineRunner::Make(stages);
    PartitionData out = PartitionData::FromBatch(runner.Run(pd.AsBatch()));
    return out.raw_bytes() + out.num_rows();  // force the byte accounting
  };

  // Transparency first: all paths must agree bit-for-bit on every chunk,
  // outputs and counters alike, before the clock starts.
  bool identical = true;
  for (size_t i = 0; i < kChunks; ++i) {
    PipelineCounters rc, bc;
    std::vector<Row> row_out = run_row_chunk(chunks[i], &rc);
    std::vector<Row> batch_out = run_batch_chunk(chunks[i], &bc);
    BatchPipelineRunner runner = BatchPipelineRunner::Make(stages);
    PartitionData col_out =
        PartitionData::FromBatch(runner.Run(stored[i].AsBatch()));
    if (!RowsBitIdentical(row_out, batch_out) ||
        !RowsBitIdentical(row_out, col_out.rows()) ||
        rc.rows_in != bc.rows_in || rc.rows_out != bc.rows_out ||
        std::memcmp(&rc.cpu_units, &bc.cpu_units, sizeof(double)) != 0) {
      identical = false;
      break;
    }
  }
  std::printf("  outputs and counters bit-identical: %s\n",
              identical ? "YES" : "NO");

  // Pre-built batches isolate the kernel region; the executor builds these
  // once per chunk and shares them across every subscriber pipeline.
  std::vector<RowBatch> prebuilt;
  prebuilt.reserve(kChunks);
  for (const auto& chunk : chunks) {
    prebuilt.push_back(RowBatch::FromRows(chunk, schema0.size()));
  }

  const int hw = ThreadPool::HardwareThreads();
  double min_gated_speedup = 0.0;
  double min_gated_e2e_speedup = 0.0;
  bool any_gated = false;
  Json points = Json::Array();
  for (int t : {1, 2, 4, 8}) {
    ThreadPool pool(t);
    double row_wall = 0.0;
    double kernel_wall = 0.0;
    double e2e_wall = 0.0;
    double rowstore_wall = 0.0;
    constexpr int kReps = 3;
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      pool.ParallelFor(kChunks, [&](size_t i) {
        benchmark::DoNotOptimize(run_row_chunk(chunks[i], nullptr).size());
      });
      const double rw = SecondsSince(t0);
      if (rep == 0 || rw < row_wall) row_wall = rw;

      t0 = std::chrono::steady_clock::now();
      pool.ParallelFor(kChunks, [&](size_t i) {
        BatchPipelineRunner runner = BatchPipelineRunner::Make(stages);
        RowBatch out = runner.Run(prebuilt[i]);
        benchmark::DoNotOptimize(out.ToRows().size());
      });
      const double kw = SecondsSince(t0);
      if (rep == 0 || kw < kernel_wall) kernel_wall = kw;

      t0 = std::chrono::steady_clock::now();
      pool.ParallelFor(kChunks, [&](size_t i) {
        benchmark::DoNotOptimize(run_columnar_chunk(stored[i]));
      });
      const double ew = SecondsSince(t0);
      if (rep == 0 || ew < e2e_wall) e2e_wall = ew;

      t0 = std::chrono::steady_clock::now();
      pool.ParallelFor(kChunks, [&](size_t i) {
        benchmark::DoNotOptimize(run_batch_chunk(chunks[i], nullptr).size());
      });
      const double sw = SecondsSince(t0);
      if (rep == 0 || sw < rowstore_wall) rowstore_wall = sw;
    }
    const double row_rate = total_rows / std::max(row_wall, 1e-9);
    const double kernel_rate = total_rows / std::max(kernel_wall, 1e-9);
    const double e2e_rate = total_rows / std::max(e2e_wall, 1e-9);
    const double rowstore_rate = total_rows / std::max(rowstore_wall, 1e-9);
    const double kernel_speedup = kernel_rate / std::max(row_rate, 1e-9);
    const double e2e_speedup = e2e_rate / std::max(row_rate, 1e-9);
    const double rowstore_speedup = rowstore_rate / std::max(row_rate, 1e-9);
    const bool gated = t <= hw;
    if (gated) {
      if (!any_gated || kernel_speedup < min_gated_speedup) {
        min_gated_speedup = kernel_speedup;
      }
      if (!any_gated || e2e_speedup < min_gated_e2e_speedup) {
        min_gated_e2e_speedup = e2e_speedup;
      }
      any_gated = true;
    }
    std::printf(
        "  threads=%d%s  row %.0f rows/s  batch kernel %.0f rows/s (%.1fx)"
        "  end-to-end %.0f rows/s (%.1fx)  row-store e2e %.0f rows/s"
        " (%.1fx)\n",
        t, gated ? "" : " (oversubscribed)", row_rate, kernel_rate,
        kernel_speedup, e2e_rate, e2e_speedup, rowstore_rate,
        rowstore_speedup);

    Json point = Json::Object();
    point["threads"] = static_cast<uint64_t>(t);
    point["gated"] = gated;
    point["row_rows_per_sec"] = row_rate;
    point["batch_kernel_rows_per_sec"] = kernel_rate;
    point["batch_e2e_rows_per_sec"] = e2e_rate;
    point["rowstore_e2e_rows_per_sec"] = rowstore_rate;
    point["kernel_speedup"] = kernel_speedup;
    point["e2e_speedup"] = e2e_speedup;
    point["rowstore_e2e_speedup"] = rowstore_speedup;
    points.Append(std::move(point));
  }
  const bool fast_enough = any_gated && min_gated_speedup >= 5.0 &&
                           min_gated_e2e_speedup >= 5.0;
  std::printf(
      "  min speedups at t <= %d hardware threads: kernel %.1fx, "
      "end-to-end %.1fx (gate: both >= 5x %s)\n",
      hw, min_gated_speedup, min_gated_e2e_speedup,
      fast_enough ? "PASS" : "FAIL");

  Json study = Json::Object();
  study["pipeline_stages"] = static_cast<uint64_t>(stages.size());
  study["rows"] = total_rows;
  study["chunks"] = static_cast<uint64_t>(kChunks);
  study["hardware_threads"] = static_cast<uint64_t>(hw);
  study["identical_results"] = identical;
  study["min_kernel_speedup"] = min_gated_speedup;
  study["min_e2e_speedup"] = min_gated_e2e_speedup;
  study["points"] = std::move(points);
  (*doc)["vectorized_exec"] = std::move(study);
  return identical && fast_enough;
}

// Bloom predicate-transfer study. Two legs:
//   kernel: BloomProbeMapFn throughput, row path (Map loop) vs batch path
//           (MapBatch narrowing the selection), over map-task-sized
//           chunks — the region the probe stage adds to every probe-side
//           map task;
//   end-to-end: a selective inner join (build side filtered to 10% of the
//           key space, probe side 4x the build's logical bytes) optimized
//           with bloom_transfer off vs on and executed in the simulator.
// The gate requires bit-identical probe outputs on both kernel paths,
// bit-identical terminal outputs on vs off, the transform actually winning
// the search, and a shuffle-byte reduction of at least 30%.
bool RunBloomProbeStudy(Json* doc) {
  using namespace stubby::bench;
  std::printf("\nBloom-probe study (predicate transfer on a selective join)\n");

  // --- probe kernel --------------------------------------------------------
  Schema schema({"K", "G", "V"});
  auto filter = std::make_shared<BloomFilter>(20, 6, kBloomFilterSeed);
  for (int64_t k = 0; k < 10000; ++k) {
    filter->Insert(HashOnFields(Row{k, int64_t{0}, int64_t{0}}, {0}));
  }
  constexpr size_t kChunks = 64;
  constexpr size_t kChunkRows = 4096;
  Rng rng(41);
  std::vector<std::vector<Row>> chunks(kChunks);
  for (auto& chunk : chunks) {
    chunk.reserve(kChunkRows);
    for (size_t i = 0; i < kChunkRows; ++i) {
      chunk.push_back(Row{rng.NextInt(0, 99999), rng.NextInt(0, 9),
                          rng.NextDouble(0, 100)});
    }
  }
  const uint64_t total_rows = kChunks * kChunkRows;
  BloomProbeMapFn probe("probe", schema, {"K"});
  auto bound = probe.Bind(filter);

  bool probe_identical = true;
  uint64_t kept = 0;
  std::vector<RowBatch> prebuilt;
  prebuilt.reserve(kChunks);
  for (const auto& chunk : chunks) {
    prebuilt.push_back(RowBatch::FromRows(chunk, schema.size()));
    VectorEmitter row_out;
    for (const Row& r : chunk) bound->Map(r, &row_out);
    RowBatch batch = prebuilt.back();
    bound->MapBatch(&batch);
    if (!RowsBitIdentical(row_out.rows(), batch.ToRows())) {
      probe_identical = false;
    }
    kept += row_out.rows().size();
  }
  const double pass_fraction =
      static_cast<double>(kept) / static_cast<double>(total_rows);
  std::printf("  probe outputs bit-identical row vs batch: %s"
              " (pass fraction %.3f)\n",
              probe_identical ? "YES" : "NO", pass_fraction);

  double row_wall = 0.0;
  double batch_wall = 0.0;
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    for (const auto& chunk : chunks) {
      VectorEmitter out;
      for (const Row& r : chunk) bound->Map(r, &out);
      benchmark::DoNotOptimize(out.rows().size());
    }
    const double rw = SecondsSince(t0);
    if (rep == 0 || rw < row_wall) row_wall = rw;

    t0 = std::chrono::steady_clock::now();
    for (const RowBatch& pre : prebuilt) {
      RowBatch batch = pre;
      bound->MapBatch(&batch);
      benchmark::DoNotOptimize(batch.num_rows());
    }
    const double bw = SecondsSince(t0);
    if (rep == 0 || bw < batch_wall) batch_wall = bw;
  }
  const double row_rate = total_rows / std::max(row_wall, 1e-9);
  const double batch_rate = total_rows / std::max(batch_wall, 1e-9);
  std::printf("  probe kernel: row %.0f rows/s  batch %.0f rows/s (%.1fx)\n",
              row_rate, batch_rate, batch_rate / std::max(row_rate, 1e-9));

  // --- end-to-end selective join -------------------------------------------
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
  const bool gate = probe_identical && e2e_applied && e2e_identical &&
                    reduction >= 0.30;
  std::printf("  gate (probes identical, applied, outputs identical, cut"
              " >= 30%%): %s\n",
              gate ? "PASS" : "FAIL");

  Json study = Json::Object();
  study["rows"] = total_rows;
  study["probe_identical"] = probe_identical;
  study["probe_pass_fraction"] = pass_fraction;
  study["probe_row_rows_per_sec"] = row_rate;
  study["probe_batch_rows_per_sec"] = batch_rate;
  study["probe_batch_speedup"] = batch_rate / std::max(row_rate, 1e-9);
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
  if (StudyEnabled("cost_cache")) ok = RunCostCacheStudy(&doc) && ok;
  if (StudyEnabled("thread_scaling")) ok = RunThreadScalingStudy(&doc) && ok;
  if (StudyEnabled("skewed_batch")) ok = RunSkewedBatchStudy(&doc) && ok;
  if (StudyEnabled("vectorized_exec")) ok = RunVectorizedExecStudy(&doc) && ok;
  if (StudyEnabled("bloom_probe")) ok = RunBloomProbeStudy(&doc) && ok;
  stubby::bench::WriteBenchJson("BENCH_MICRO.json", doc);
  return ok ? 0 : 1;
}
