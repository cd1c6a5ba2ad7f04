// Shared helpers for tests: tiny synthetic workflows with known semantics,
// plus profile/execute/compare utilities.

#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/workflow_runner.h"
#include "profiler/profiler.h"
#include "workloads/builder.h"
#include "workloads/udfs.h"

namespace stubby::testing {

constexpr uint64_t kGB = 1ull << 30;

/// A two-job chain over <K, Z, V>: Jp groups by (K, Z) summing V, Jc groups
/// by (K) summing the partial sums. Fully annotated; the classic vertical
/// packing candidate (Jc's grouping is a prefix of Jp's).
inline Result<WorkflowFactory> MakeChain(int rows = 4000, int distinct_k = 50,
                                         int distinct_z = 40,
                                         uint64_t logical_bytes = 16 * kGB,
                                         uint64_t seed = 21) {
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Rng rng(seed);
  Schema in_schema({"K", "Z", "V"});
  std::vector<Row> data;
  for (int i = 0; i < rows; ++i) {
    data.push_back(Row{rng.NextInt(0, distinct_k - 1),
                       rng.NextInt(0, distinct_z - 1),
                       rng.NextDouble(0, 10)});
  }
  Layout layout;
  STUBBY_RETURN_NOT_OK(
      f.AddBase("IN", in_schema, layout, 8, std::move(data), logical_bytes));
  Schema mid({"K", "Z", "S"});
  Schema out({"K", "T"});
  STUBBY_RETURN_NOT_OK(f.AddDataset("MID", mid));
  STUBBY_RETURN_NOT_OK(f.AddDataset("OUT", out, /*workflow_output=*/true));
  {
    WorkflowFactory::JobDef j;
    j.id = "Jp";
    j.inputs = {In("IN", {})};
    j.map_output_schema = in_schema;
    j.reduce_stages = {Stage::Reduce(
        AggReduce("sum_kz", in_schema, {"K", "Z"}, {{"V", AggOp::kSum, "S"}}),
        {"K", "Z"})};
    j.combiner = AggCombine("combine_kz", in_schema, {"K", "Z"},
                            {{"V", AggOp::kSum, "V"}});
    j.output = "MID";
    SchemaAnnotation sa;
    sa.k1 = FieldSet{"K", "Z"};
    sa.v1 = FieldSet{"V"};
    sa.k2 = FieldSet{"K", "Z"};
    sa.v2 = FieldSet{"V"};
    sa.k3 = FieldSet{"K", "Z"};
    sa.v3 = FieldSet{"S"};
    j.schema_ann = sa;
    STUBBY_RETURN_NOT_OK(f.AddJob(std::move(j)));
  }
  {
    WorkflowFactory::JobDef j;
    j.id = "Jc";
    j.inputs = {In("MID", {})};
    j.map_output_schema = mid;
    j.reduce_stages = {Stage::Reduce(
        AggReduce("sum_k", mid, {"K"}, {{"S", AggOp::kSum, "T"}}), {"K"})};
    j.sort_extra = {"Z"};
    j.output = "OUT";
    SchemaAnnotation sa;
    sa.k1 = FieldSet{"K", "Z"};
    sa.v1 = FieldSet{"S"};
    sa.k2 = FieldSet{"K"};
    sa.v2 = FieldSet{"Z", "S"};
    sa.k3 = FieldSet{"K"};
    sa.v3 = FieldSet{"T"};
    j.schema_ann = sa;
    STUBBY_RETURN_NOT_OK(f.AddJob(std::move(j)));
  }
  STUBBY_RETURN_NOT_OK(f.plan().Validate());
  return f;
}

/// Two sibling aggregation jobs over one input (horizontal candidates).
inline Result<WorkflowFactory> MakeSiblings(int rows = 4000,
                                            uint64_t logical_bytes = 16 * kGB,
                                            uint64_t seed = 22) {
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Rng rng(seed);
  Schema in_schema({"G", "X", "V"});
  std::vector<Row> data;
  for (int i = 0; i < rows; ++i) {
    data.push_back(Row{rng.NextInt(0, 99), rng.NextDouble(0, 100),
                       rng.NextDouble(0, 10)});
  }
  Layout layout;
  STUBBY_RETURN_NOT_OK(
      f.AddBase("IN", in_schema, layout, 8, std::move(data), logical_bytes));
  Schema out_a({"G", "SA"});
  Schema out_b({"G", "MB"});
  STUBBY_RETURN_NOT_OK(f.AddDataset("OA", out_a, true));
  STUBBY_RETURN_NOT_OK(f.AddDataset("OB", out_b, true));
  auto add = [&](const std::string& id, AggOp op, const std::string& field,
                 const std::string& output) -> Status {
    WorkflowFactory::JobDef j;
    j.id = id;
    j.inputs = {In("IN", {})};
    j.map_output_schema = in_schema;
    j.reduce_stages = {Stage::Reduce(
        AggReduce("agg_" + id, in_schema, {"G"}, {{"V", op, field}}), {"G"})};
    j.output = output;
    SchemaAnnotation sa;
    sa.k1 = FieldSet{"G"};
    sa.v1 = FieldSet{"X", "V"};
    sa.k2 = FieldSet{"G"};
    sa.v2 = FieldSet{"X", "V"};
    sa.k3 = FieldSet{"G"};
    sa.v3 = FieldSet{field};
    j.schema_ann = sa;
    return f.AddJob(std::move(j));
  };
  STUBBY_RETURN_NOT_OK(add("Ja", AggOp::kSum, "SA", "OA"));
  STUBBY_RETURN_NOT_OK(add("Jb", AggOp::kMax, "MB", "OB"));
  STUBBY_RETURN_NOT_OK(f.plan().Validate());
  return f;
}

/// A selective inner join: R is filtered to a 20-wide key window over a
/// 200-key space (the build side), S is four times R's logical size and
/// unfiltered (the probe side) — roughly 90% of S's rows have no join
/// partner and exist only to be shuffled and discarded, unless the
/// bloom-transfer transformation drops them map-side.
inline Result<WorkflowFactory> MakeSelectiveJoin() {
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Rng rng(77);
  Schema base({"K", "G", "V"});
  auto rows_of = [&](int n) {
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) {
      rows.push_back(Row{Value(rng.NextInt(0, 199)), Value(rng.NextInt(0, 9)),
                         Value(rng.NextInt(0, 99))});
    }
    return rows;
  };
  STUBBY_RETURN_NOT_OK(
      f.AddBase("R", base, Layout{}, 4, rows_of(400), kGB));
  STUBBY_RETURN_NOT_OK(
      f.AddBase("S", base, Layout{}, 4, rows_of(3000), 4 * kGB));

  Schema tagged({"K", "G", "V", "T"});
  std::vector<AggSpec> aggs = {{"V", AggOp::kSum, "BS"}};
  STUBBY_RETURN_NOT_OK(
      f.AddDataset("OUT", AggOutputSchema({"K"}, aggs), true));

  WorkflowFactory::JobDef j;
  j.id = "JB";
  j.inputs = {
      In("R", {Stage::Map(FilterRangeMap("filter_r", base, "K", 40, 60)),
               Stage::Map(AppendConstMap("tag_r", base, "T",
                                         Value(static_cast<int64_t>(0))))}),
      In("S", {Stage::Map(AppendConstMap("tag_s", base, "T",
                                         Value(static_cast<int64_t>(1))))})};
  j.map_output_schema = tagged;
  j.reduce_stages = {Stage::Reduce(
      InnerJoinReduce("join_jb", tagged, {"K"}, "T", {0, 1}, aggs), {"K"})};
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
}

/// Profiles a plan in place against the factory's data.
inline void ProfileInPlace(WorkflowFactory* f) {
  Profiler profiler(ClusterSpec{});
  Dfs dfs = f->dfs();
  ASSERT_TRUE(profiler.ProfilePlan(&f->plan(), &dfs).ok());
}

/// Runs `plan` on a copy of the factory's base data; returns the dataflow.
inline WorkflowDataflow RunOn(const WorkflowFactory& f, const Plan& plan,
                              Dfs* out_dfs = nullptr) {
  WorkflowRunner runner(plan.cluster());
  Dfs dfs = const_cast<WorkflowFactory&>(f).dfs();
  auto flow = runner.Run(plan, &dfs);
  EXPECT_TRUE(flow.ok()) << flow.status();
  if (out_dfs != nullptr) *out_dfs = dfs;
  return flow.ok() ? *flow : WorkflowDataflow{};
}

/// Asserts that two plans produce (approximately) identical rows on every
/// workflow-output dataset.
inline void ExpectEquivalent(const WorkflowFactory& f, const Plan& a,
                             const Plan& b) {
  Dfs da, db;
  RunOn(f, a, &da);
  RunOn(f, b, &db);
  for (const auto& [id, ds] : a.datasets()) {
    if (!ds.is_workflow_output) continue;
    auto ra = da.Get(id);
    auto rb = db.Get(id);
    ASSERT_TRUE(ra.ok() && rb.ok()) << id;
    EXPECT_TRUE(RowsApproxEqual((*ra)->AllRows(), (*rb)->AllRows(), 1e-6))
        << "output mismatch on " << id;
  }
}

}  // namespace stubby::testing
