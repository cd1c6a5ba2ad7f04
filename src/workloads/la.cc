// Log Analysis (Table 1: 500 GB): the join task of Pavlo et al. [17]
// (Section 7.1). Inputs: uservisits (range-partitioned on date — the
// loader records the split points, enabling partition pruning against J1's
// date filter) and pageranks.
//   J1  filter uservisits by date range, project (map-only)
//   J2  join with pageranks on url           — group by {U}
//   J3  average pagerank + total ad revenue  — group by {US}
//   J4  user with the highest total revenue  — single group
// Vertical packing folds the map-only filter J1 into the join J2
// (eliminating the filtered intermediate entirely); partition pruning cuts
// the uservisits scan to the filtered date partitions.

#include "workloads/builder.h"
#include "workloads/generators.h"
#include "workloads/registry.h"
#include "workloads/udfs.h"

namespace stubby {

namespace {
constexpr uint64_t kGB = 1ull << 30;
}

Result<Workload> MakeLA(const WorkloadOptions& options) {
  Rng rng(options.seed * 1000 + 3);
  WorkflowFactory f(options.cluster);

  const int rows = options.sample_rows;
  const int urls = std::max(100, rows / 10);
  GeneratedData visits =
      GenUserVisits(rows, /*days=*/365, urls, std::max(50, rows / 20), &rng);
  GeneratedData ranks = GenPageRanks(urls, &rng);

  // uservisits: range-partitioned on the date into 36 partitions with
  // explicit split points every ~10 days.
  Layout uv_layout;
  PartitionSpec uv_part;
  uv_part.type = PartitionType::kRange;
  uv_part.partition_fields = {"DT"};
  uv_part.sort_fields = {"DT"};
  std::vector<Row> day_splits;
  for (int day = 10; day < 360; day += 10) {
    day_splits.push_back(Row{int64_t{day}});
  }
  uv_part.split_points = std::move(day_splits);
  uv_layout.partitioning = uv_part;
  STUBBY_RETURN_NOT_OK(f.AddBase("UV", visits.schema, uv_layout,
                                 /*partitions=*/36, std::move(visits.rows),
                                 460 * kGB));

  Layout pr_layout;  // plain blocks
  STUBBY_RETURN_NOT_OK(f.AddBase("PR", ranks.schema, pr_layout,
                                 /*partitions=*/8, std::move(ranks.rows),
                                 40 * kGB));

  const Schema kUV({"DT", "U", "AD", "US"});
  const Schema kD1({"U", "AD", "US"});
  // Tagged union schema for the repartition join.
  const Schema kJoin({"U", "TAG", "AD", "US", "K"});
  const Schema kD2({"US", "K", "AD"});
  const Schema kD3({"US", "AK", "TR"});
  const Schema kD4({"US", "TR"});

  STUBBY_RETURN_NOT_OK(f.AddDataset("D1", kD1));
  STUBBY_RETURN_NOT_OK(f.AddDataset("D2", kD2));
  STUBBY_RETURN_NOT_OK(f.AddDataset("D3", kD3));
  STUBBY_RETURN_NOT_OK(f.AddDataset("D4", kD4, /*workflow_output=*/true));

  // J1: filter uservisits to the analyzed date range, project.
  {
    WorkflowFactory::JobDef j;
    j.id = "J1";
    j.inputs = {In("UV", {Stage::Map(FilterRangeMap("filter_date", kUV, "DT",
                                                    30, 60, /*cpu=*/0.5)),
                          Stage::Map(ProjectMap("project_visit", kUV,
                                                {"U", "AD", "US"}, 0.4))})};
    j.map_output_schema = kD1;
    j.output = "D1";
    SchemaAnnotation sa;
    sa.k1 = FieldSet{"DT", "U"};
    sa.v1 = FieldSet{"AD", "US"};
    sa.k3 = FieldSet{"U"};
    sa.v3 = FieldSet{"AD", "US"};
    j.schema_ann = sa;
    FilterAnnotation fa;
    fa.field = "DT";
    fa.lo = 30;
    fa.hi = 60;
    j.filter_ann = fa;
    STUBBY_RETURN_NOT_OK(f.AddJob(std::move(j)));
  }

  // J2: repartition join of the filtered visits with pageranks on url.
  {
    auto visit_side = std::make_shared<LambdaMapFn>(
        "tag_visits", kD1, kJoin,
        [](const Row& r, Emitter* out) {
          out->Emit(Row{r[0], int64_t{1}, r[1], r[2], int64_t{0}});
        },
        /*cpu=*/0.5);
    auto rank_side = std::make_shared<LambdaMapFn>(
        "tag_ranks", Schema({"U", "K"}), kJoin,
        [](const Row& r, Emitter* out) {
          out->Emit(Row{r[0], int64_t{0}, 0.0, int64_t{0}, r[1]});
        },
        /*cpu=*/0.4);
    auto join = std::make_shared<LambdaReduceFn>(
        "join_on_url", kD2,
        [](const Row& key, const std::vector<Row>& group, Emitter* out) {
          (void)key;
          // TAG=0 (rank row) sorts first within the group.
          double rank = 0.0;
          for (const Row& r : group) {
            if (r[1].AsInt() == 0) {
              rank = r[4].AsDouble();
            } else {
              out->Emit(Row{r[3], rank, r[2]});
            }
          }
        },
        /*cpu=*/1.2);
    WorkflowFactory::JobDef j;
    j.id = "J2";
    j.inputs = {In("D1", {Stage::Map(visit_side)}),
                In("PR", {Stage::Map(rank_side)})};
    j.map_output_schema = kJoin;
    j.reduce_stages = {Stage::Reduce(join, {"U"})};
    j.sort_extra = {"TAG"};
    j.output = "D2";
    SchemaAnnotation sa;
    sa.k1 = FieldSet{"U"};
    sa.v1 = FieldSet{"AD", "US", "K"};
    sa.k2 = FieldSet{"U"};
    sa.v2 = FieldSet{"TAG", "AD", "US", "K"};
    sa.k3 = FieldSet{"US"};
    sa.v3 = FieldSet{"K", "AD"};
    j.schema_ann = sa;
    STUBBY_RETURN_NOT_OK(f.AddJob(std::move(j)));
  }

  // J3: average pagerank and total ad revenue per user.
  {
    WorkflowFactory::JobDef j;
    j.id = "J3";
    j.inputs = {In("D2", {})};
    j.map_output_schema = kD2;
    j.reduce_stages = {Stage::Reduce(
        AggReduce("user_totals", kD2, {"US"},
                  {{"K", AggOp::kAvg, "AK"}, {"AD", AggOp::kSum, "TR"}},
                  /*cpu=*/1.0),
        {"US"})};
    j.output = "D3";
    SchemaAnnotation sa;
    sa.k1 = FieldSet{"US"};
    sa.v1 = FieldSet{"K", "AD"};
    sa.k2 = FieldSet{"US"};
    sa.v2 = FieldSet{"K", "AD"};
    sa.k3 = FieldSet{"US"};
    sa.v3 = FieldSet{"AK", "TR"};
    j.schema_ann = sa;
    STUBBY_RETURN_NOT_OK(f.AddJob(std::move(j)));
  }

  // J4: the user with the highest total ad revenue (single-task top-1).
  {
    auto top_user = std::make_shared<LambdaReduceFn>(
        "top_user", kD4,
        [](const Row& key, const std::vector<Row>& group, Emitter* out) {
          (void)key;
          const Row* best = nullptr;
          for (const Row& r : group) {
            if (best == nullptr || (*best)[2].AsDouble() < r[2].AsDouble()) {
              best = &r;
            }
          }
          if (best != nullptr) out->Emit(Row{(*best)[0], (*best)[2]});
        },
        /*cpu=*/0.6);
    WorkflowFactory::JobDef j;
    j.id = "J4";
    j.inputs = {In("D3", {Stage::Map(AppendConstMap(
                    "const_key", kD3, "ONE", Value(int64_t{1}), 0.2))})};
    j.map_output_schema = kD3.Concat(Schema({"ONE"}));
    j.reduce_stages = {Stage::Reduce(top_user, {"ONE"})};
    JobConfig cfg;
    cfg.num_reduce_tasks = 1;
    j.config = cfg;
    j.output = "D4";
    SchemaAnnotation sa;
    sa.k2 = FieldSet{"ONE"};
    sa.k3 = FieldSet{"US"};
    sa.v3 = FieldSet{"TR"};
    j.schema_ann = sa;
    STUBBY_RETURN_NOT_OK(f.AddJob(std::move(j)));
  }
  // A global top-1 must run as a single task.
  {
    STUBBY_ASSIGN_OR_RETURN(JobVertex * j4, f.plan().GetMutableJob("J4"));
    j4->conditions.num_reduce_fixed = 1;
  }

  STUBBY_RETURN_NOT_OK(f.plan().Validate());
  Workload w;
  w.abbr = "LA";
  w.name = "Log Analysis";
  w.plan = std::move(f.plan());
  w.dfs = std::move(f.dfs());
  w.dataset_logical_bytes = 500 * kGB;
  return w;
}

}  // namespace stubby
