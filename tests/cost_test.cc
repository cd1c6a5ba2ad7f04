// Tests for cost/: the phase-time model, the cluster scheduler, annotation
// adjustment, and the what-if engine (prediction accuracy, fallback).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "cost/adjust.h"
#include "cost/phase_model.h"
#include "cost/schedule.h"
#include "cost/whatif.h"
#include "test_workflows.h"

namespace stubby {
namespace {

using ::stubby::testing::MakeChain;
using ::stubby::testing::ProfileInPlace;
using ::stubby::testing::RunOn;

JobDataflow BaseFlow() {
  JobDataflow df;
  df.job_id = "J";
  df.num_map_tasks = 100;
  df.num_reduce_tasks = 50;
  df.map_input_records = 1'000'000;
  df.map_input_bytes = 1ull << 30;
  df.map_input_stored_bytes = 1ull << 30;
  df.map_cpu_units = 1'000'000;
  df.map_output_records = 1'000'000;
  df.map_output_bytes = 1ull << 30;
  df.combine_output_records = 1'000'000;
  df.combine_output_bytes = 1ull << 30;
  df.reduce_input_records = 1'000'000;
  df.reduce_input_bytes = 1ull << 30;
  df.reduce_cpu_units = 1'000'000;
  df.output_records = 1'000'000;
  df.output_bytes = 1ull << 30;
  df.max_map_task_input_bytes = (1ull << 30) / 100;
  df.max_reduce_input_bytes = (1ull << 30) / 50;
  df.nonempty_reduce_partitions = 50;
  return df;
}

TEST(PhaseModelTest, MoreDataTakesLonger) {
  PhaseTimeModel model((ClusterSpec()));
  JobConfig cfg;
  cfg.num_reduce_tasks = 50;
  JobDataflow small = BaseFlow();
  JobDataflow big = BaseFlow();
  big.map_input_bytes *= 4;
  big.map_input_stored_bytes *= 4;
  big.map_output_bytes *= 4;
  big.combine_output_bytes *= 4;
  big.reduce_input_bytes *= 4;
  big.output_bytes *= 4;
  EXPECT_GT(model.StandaloneJobTime(big, cfg),
            model.StandaloneJobTime(small, cfg));
}

TEST(PhaseModelTest, SkewSlowsTheSlowestTask) {
  PhaseTimeModel model((ClusterSpec()));
  JobConfig cfg;
  JobDataflow uniform = BaseFlow();
  JobDataflow skewed = BaseFlow();
  skewed.max_reduce_input_bytes *= 10;
  JobTaskTimes tu = model.TaskTimes(uniform, cfg);
  JobTaskTimes ts = model.TaskTimes(skewed, cfg);
  EXPECT_NEAR(tu.reduce_avg_sec, ts.reduce_avg_sec, 1e-9);
  EXPECT_GT(ts.reduce_max_sec, tu.reduce_max_sec * 5);
}

TEST(PhaseModelTest, SmallSortBufferCausesMoreSpillIo) {
  PhaseTimeModel model((ClusterSpec()));
  JobConfig big_buf;
  big_buf.io_sort_mb = 512;
  JobConfig tiny_buf;
  tiny_buf.io_sort_mb = 16;
  JobDataflow df = BaseFlow();
  df.num_map_tasks = 4;  // ~256 MB of map output per task
  EXPECT_GT(model.TaskTimes(df, tiny_buf).map_avg_sec,
            model.TaskTimes(df, big_buf).map_avg_sec);
  EXPECT_GT(model.SpillCount(512.0 * 1024 * 1024, tiny_buf, 1),
            model.SpillCount(512.0 * 1024 * 1024, big_buf, 1));
}

TEST(PhaseModelTest, PackedPipelinesShrinkTheBuffer) {
  PhaseTimeModel model((ClusterSpec()));
  JobConfig cfg;
  EXPECT_GE(model.SpillCount(600.0 * 1024 * 1024, cfg, 4),
            model.SpillCount(600.0 * 1024 * 1024, cfg, 1));
}

TEST(PhaseModelTest, MergePasses) {
  EXPECT_EQ(PhaseTimeModel::MergePasses(1, 10), 0);
  EXPECT_EQ(PhaseTimeModel::MergePasses(10, 10), 1);
  EXPECT_EQ(PhaseTimeModel::MergePasses(100, 10), 2);
  EXPECT_EQ(PhaseTimeModel::MergePasses(101, 10), 3);
}

TEST(PhaseModelTest, MapOutputCompressionTradesCpuForIo) {
  ClusterSpec cluster;
  cluster.network_mbps = 10;  // shuffle-bound cluster
  PhaseTimeModel model(cluster);
  JobConfig off;
  JobConfig on;
  on.compress_map_output = true;
  JobDataflow df = BaseFlow();
  JobTaskTimes t_off = model.TaskTimes(df, off);
  JobTaskTimes t_on = model.TaskTimes(df, on);
  EXPECT_LT(t_on.reduce_avg_sec, t_off.reduce_avg_sec);
}

TEST(ScheduleTest, SingleJobWaves) {
  ClusterSpec cluster;  // 150 map slots, 102 reduce slots
  ScheduledJob j;
  j.id = "J";
  j.times.map_tasks = 300;  // exactly two map waves
  j.times.map_avg_sec = 10;
  j.times.map_max_sec = 10;
  j.times.reduce_tasks = 0;
  j.times.job_overhead_sec = 5;
  auto res = SimulateCluster({j}, cluster);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->makespan_sec, 5 + 2 * 10, 1e-6);
}

TEST(ScheduleTest, DependentJobsSerialize) {
  ClusterSpec cluster;
  ScheduledJob a, b;
  a.id = "A";
  a.times.map_tasks = 10;
  a.times.map_avg_sec = a.times.map_max_sec = 10;
  b = a;
  b.id = "B";
  b.deps = {"A"};
  auto res = SimulateCluster({a, b}, cluster);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->job_finish_sec.at("A"), 10, 1e-6);
  EXPECT_NEAR(res->makespan_sec, 20, 1e-6);
}

TEST(ScheduleTest, IndependentJobsOverlapWhenSlotsAllow) {
  ClusterSpec cluster;
  ScheduledJob a, b;
  a.id = "A";
  a.times.map_tasks = 50;
  a.times.map_avg_sec = a.times.map_max_sec = 10;
  b = a;
  b.id = "B";
  auto res = SimulateCluster({a, b}, cluster);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->makespan_sec, 10, 1e-6);  // 100 tasks <= 150 slots
}

TEST(ScheduleTest, SlotContentionSerializes) {
  ClusterSpec cluster;
  ScheduledJob a, b;
  a.id = "A";
  a.times.map_tasks = 150;
  a.times.map_avg_sec = a.times.map_max_sec = 10;
  b = a;
  b.id = "B";
  auto res = SimulateCluster({a, b}, cluster);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->makespan_sec, 20, 1e-6);
}

TEST(ScheduleTest, ReducesWaitForOwnMapsOnly) {
  ClusterSpec cluster;
  ScheduledJob a;
  a.id = "A";
  a.times.map_tasks = 10;
  a.times.map_avg_sec = a.times.map_max_sec = 10;
  a.times.reduce_tasks = 10;
  a.times.reduce_avg_sec = a.times.reduce_max_sec = 7;
  auto res = SimulateCluster({a}, cluster);
  ASSERT_TRUE(res.ok());
  EXPECT_NEAR(res->makespan_sec, 17, 1e-6);
}

TEST(ScheduleTest, RejectsUnknownDependency) {
  ScheduledJob a;
  a.id = "A";
  a.deps = {"GHOST"};
  EXPECT_FALSE(SimulateCluster({a}, ClusterSpec()).ok());
}

TEST(ScheduleTest, RejectsDuplicateIds) {
  ScheduledJob a;
  a.id = "A";
  EXPECT_FALSE(SimulateCluster({a, a}, ClusterSpec()).ok());
}

TEST(AdjustTest, ComposeStatsMultipliesSelectivitiesAndSumsCpu) {
  // The paper's example: packed map selectivity = product of the old map
  // and reduce selectivities; CPU cost = sum (input-weighted).
  Schema s({"a"});
  Stage m = Stage::Map(MakeIdentityMap(s),
                       StageStats{0.5, 0.6, 2.0, 1.0});
  Stage r = Stage::Reduce(DistinctReduce("d", s, {"a"}), {"a"},
                          StageStats{0.2, 0.3, 4.0, 0.2});
  StageStats combined = ComposeStats({m, r});
  EXPECT_DOUBLE_EQ(combined.record_selectivity, 0.1);
  EXPECT_DOUBLE_EQ(combined.byte_selectivity, 0.18);
  EXPECT_DOUBLE_EQ(combined.cpu_per_record, 2.0 + 0.5 * 4.0);
}

TEST(AdjustTest, MergeDirectionPicksTheSurvivingShuffle) {
  JobAnnotations producer, consumer;
  SchemaAnnotation ps, cs;
  ps.k1 = FieldSet{"a"};
  ps.k2 = FieldSet{"p2"};
  ps.k3 = FieldSet{"pm"};
  cs.k2 = FieldSet{"c2"};
  cs.k3 = FieldSet{"out"};
  producer.schema = ps;
  consumer.schema = cs;
  ProfileAnnotation pp, cp;
  pp.k2_distinct_groups = 111;
  cp.k2_distinct_groups = 222;
  producer.profile = pp;
  consumer.profile = cp;

  JobAnnotations into_producer = MergeForVerticalPack(
      producer, consumer, PackDirection::kConsumerIntoProducer);
  EXPECT_EQ(*into_producer.schema->k2, FieldSet{"p2"});
  EXPECT_EQ(*into_producer.schema->k3, FieldSet{"out"});
  EXPECT_DOUBLE_EQ(into_producer.profile->k2_distinct_groups, 111);

  JobAnnotations into_consumer = MergeForVerticalPack(
      producer, consumer, PackDirection::kProducerIntoConsumer);
  EXPECT_EQ(*into_consumer.schema->k2, FieldSet{"c2"});
  EXPECT_EQ(*into_consumer.schema->k1, FieldSet{"a"});
  EXPECT_DOUBLE_EQ(into_consumer.profile->k2_distinct_groups, 222);
}

TEST(WhatIfTest, FallsBackWithoutProfiles) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  WhatIfEngine whatif(f->plan().cluster());
  EXPECT_FALSE(whatif.IsCostable(f->plan()));  // not profiled yet
  CostEstimate est = whatif.Cost(f->plan());
  EXPECT_TRUE(est.fallback);
  EXPECT_DOUBLE_EQ(est.cost, 2.0);  // job count
}

TEST(WhatIfTest, PredictsProfiledPlansCloseToActual) {
  auto f = MakeChain(4000);
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  WhatIfEngine whatif(f->plan().cluster());
  ASSERT_TRUE(whatif.IsCostable(f->plan()));
  auto predicted = whatif.PredictDataflow(f->plan());
  ASSERT_TRUE(predicted.ok());
  WorkflowDataflow actual = RunOn(*f, f->plan());
  // The profiled plan itself should be predicted tightly.
  EXPECT_NEAR(predicted->makespan_sec, actual.makespan_sec,
              0.25 * actual.makespan_sec);
  const JobDataflow* pa = predicted->FindJob("Jp");
  const JobDataflow* aa = actual.FindJob("Jp");
  ASSERT_TRUE(pa != nullptr && aa != nullptr);
  EXPECT_EQ(pa->num_map_tasks, aa->num_map_tasks);
  EXPECT_NEAR(static_cast<double>(pa->map_output_bytes),
              static_cast<double>(aa->map_output_bytes),
              0.05 * aa->map_output_bytes);
}

TEST(WhatIfTest, KeyHistogramRangeAndQuantile) {
  KeyHistogram h;
  h.field = "x";
  h.min = 0;
  h.max = 100;
  h.bucket_fractions = {0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(h.FractionInRange(0, 50), 0.5, 1e-9);
  EXPECT_NEAR(h.FractionInRange(-10, 1000), 1.0, 1e-9);
  EXPECT_NEAR(h.Quantile(0.5), 50, 1.0);
  // With a heavy hitter holding 40% at x=10 the quantile shifts left.
  h.bucket_fractions = {0.15, 0.15, 0.15, 0.15};
  h.heavy_hitters = {{10.0, 0.4}};
  EXPECT_NEAR(h.FractionInRange(9, 11), 0.4 + 0.6 * 0.02, 0.01);
  EXPECT_LE(h.Quantile(0.4), 10.5);
}

/// KeyHistogram::FractionInRange as a scan over every bucket — the
/// reference the bucket-range implementation must match bit for bit.
double FractionInRangeFullScan(const KeyHistogram& h, double lo, double hi) {
  if (h.bucket_fractions.empty() || h.max < h.min) return 1.0;
  double point_mass = 0.0;
  for (const auto& [value, fraction] : h.heavy_hitters) {
    if (value >= lo && value < hi) point_mass += fraction;
  }
  lo = std::max(lo, h.min);
  hi = std::min(hi, h.max + 1e-12);
  if (hi <= lo) return std::clamp(point_mass, 0.0, 1.0);
  if (h.max == h.min) {
    return std::clamp(point_mass + h.bucket_fractions[0], 0.0, 1.0);
  }
  const double width =
      (h.max - h.min) / static_cast<double>(h.bucket_fractions.size());
  double total = point_mass;
  for (size_t i = 0; i < h.bucket_fractions.size(); ++i) {
    double b_lo = h.min + width * static_cast<double>(i);
    double b_hi = b_lo + width;
    double overlap = std::min(hi, b_hi) - std::max(lo, b_lo);
    if (overlap > 0) total += h.bucket_fractions[i] * (overlap / width);
  }
  return std::clamp(total, 0.0, 1.0);
}

TEST(WhatIfTest, FractionInRangeMatchesFullBucketScan) {
  Rng rng(2024);
  int checked = 0;
  for (int t = 0; t < 300; ++t) {
    KeyHistogram h;
    h.min = static_cast<double>(rng.NextInt(-1000, 1000));
    if (t % 3 == 1) h.min += rng.NextDouble(0, 1);
    // Every tenth histogram has max == min; the rest span small to wide.
    const double span = t % 10 == 0 ? 0.0
                        : t % 2 == 0 ? static_cast<double>(rng.NextInt(1, 100))
                                     : rng.NextDouble(1e-3, 1e6);
    h.max = h.min + span;
    const int buckets = static_cast<int>(rng.NextInt(1, 64));
    for (int i = 0; i < buckets; ++i) {
      h.bucket_fractions.push_back(rng.NextDouble(0, 2.0 / buckets));
    }
    const double width = span / buckets;
    std::vector<double> bounds = {h.min, h.max, h.max + 1.0,
                                  h.min - 1.0, h.max + 1e-12,
                                  -1e18, 1e18};
    for (int i = 0; i <= buckets; ++i) bounds.push_back(h.min + width * i);
    for (int i = 0; i < 8; ++i) {
      bounds.push_back(rng.NextDouble(h.min - 0.2 * span - 1,
                                      h.max + 0.2 * span + 1));
    }
    // Heavy hitters sit on the histogram's own bounds, on bucket edges and
    // inside buckets; each is also a range bound.
    const int hitters = static_cast<int>(rng.NextInt(0, 3));
    for (int i = 0; i < hitters; ++i) {
      const double v = i == 0 ? h.min
                       : i == 1 ? h.min + width * rng.NextInt(0, buckets)
                                : rng.NextDouble(h.min, h.max);
      h.heavy_hitters.emplace_back(v, rng.NextDouble(0, 0.3));
      bounds.push_back(v);
    }
    for (double lo : bounds) {
      for (double hi : bounds) {
        EXPECT_EQ(std::bit_cast<uint64_t>(h.FractionInRange(lo, hi)),
                  std::bit_cast<uint64_t>(FractionInRangeFullScan(h, lo, hi)))
            << "histogram " << t << " [" << lo << ", " << hi << ")";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100000);
}

TEST(WhatIfTest, PruningShrinksPredictedInput) {
  auto f = MakeChain(4000);
  ASSERT_TRUE(f.ok());
  ProfileInPlace(&*f);
  WhatIfEngine whatif(f->plan().cluster());
  Plan pruned = f->plan();
  auto jc = pruned.GetMutableJob("Jc");
  (*jc)->branches[0].inputs[0].prune_partitions = {0, 1};
  (*jc)->branches[0].inputs[0].prune_fraction = 0.25;
  auto full = whatif.PredictDataflow(f->plan());
  auto less = whatif.PredictDataflow(pruned);
  ASSERT_TRUE(full.ok() && less.ok());
  EXPECT_LT(less->FindJob("Jc")->map_input_bytes,
            full->FindJob("Jc")->map_input_bytes / 2);
}

}  // namespace
}  // namespace stubby
