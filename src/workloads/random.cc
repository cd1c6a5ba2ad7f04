#include "workloads/random.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "workloads/udfs.h"

namespace stubby {

namespace {

constexpr uint64_t kGB = 1ull << 30;

struct JobSpec {
  WorkflowFactory::JobDef def;
  std::string output_id;
  Schema output_schema;
  bool consumed = false;  ///< some later job reads output_id
};

}  // namespace

Result<WorkflowFactory> MakeRandomWorkflow(
    uint64_t seed, const RandomWorkflowOptions& options) {
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Rng rng(seed * 2654435761ull + 17);

  // Data values for the V column and appended constants: integers, or — in
  // float mode — sevenths (inexact in binary, so aggregation order shows).
  // Both modes draw once from the rng per value, keeping the job topology
  // of a seed identical across modes.
  auto val = [&](int lo, int hi) -> Value {
    const auto raw = rng.NextInt(lo, hi);
    if (options.float_values) {
      return Value(static_cast<double>(raw * 7 + (raw % 5)) / 7.0);
    }
    return Value(raw);
  };

  Schema base_schema({"K", "G", "V"});
  const int rows = 600 + static_cast<int>(rng.NextInt(0, 600));
  std::vector<Row> data;
  data.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    data.push_back(
        Row{Value(rng.NextInt(0, 19)), Value(rng.NextInt(0, 9)), val(0, 99)});
  }
  STUBBY_RETURN_NOT_OK(
      f.AddBase("BASE", base_schema, Layout{}, 4, std::move(data), 2 * kGB));

  struct Avail {
    std::string id;
    Schema schema;
    int spec_index;  ///< producing JobSpec, or -1 for the base
  };
  std::vector<Avail> avail = {{"BASE", base_schema, -1}};
  std::vector<JobSpec> specs;

  const int num_jobs = 1 + static_cast<int>(rng.NextInt(0, 3));
  int const_counter = 0;
  for (int j = 0; j < num_jobs; ++j) {
    // Chain off the newest dataset most of the time; occasionally branch
    // off an earlier one to get sibling consumers (horizontal candidates).
    size_t pick = avail.size() - 1;
    if (avail.size() > 1 && rng.NextInt(0, 2) == 0) {
      pick = static_cast<size_t>(rng.NextInt(0, avail.size() - 1));
    }
    Avail& in = avail[pick];
    if (in.spec_index >= 0) specs[in.spec_index].consumed = true;

    Schema cur = in.schema;
    std::vector<Stage> stages;
    const int num_stages = static_cast<int>(rng.NextInt(0, 2));
    for (int s = 0; s < num_stages; ++s) {
      const std::string tag =
          "j" + std::to_string(j) + "s" + std::to_string(s);
      switch (rng.NextInt(0, 2)) {
        case 0: {  // filter on a random field over an integer range
          const auto& field = cur.fields()[static_cast<size_t>(
              rng.NextInt(0, cur.fields().size() - 1))];
          const double lo = static_cast<double>(rng.NextInt(0, 30));
          const double hi = lo + static_cast<double>(rng.NextInt(10, 80));
          stages.push_back(
              Stage::Map(FilterRangeMap("filter_" + tag, cur, field, lo, hi)));
          break;
        }
        case 1: {  // project onto a random subset (≥ 2 fields, order kept)
          std::vector<std::string> keep;
          for (const std::string& field : cur.fields()) {
            if (rng.NextInt(0, 1) == 0) keep.push_back(field);
          }
          for (size_t k = 0; keep.size() < 2 && k < cur.fields().size(); ++k) {
            const std::string& field = cur.fields()[k];
            if (std::find(keep.begin(), keep.end(), field) == keep.end()) {
              keep.push_back(field);
            }
          }
          std::sort(keep.begin(), keep.end(), [&](const auto& a,
                                                  const auto& b) {
            return cur.IndexOf(a) < cur.IndexOf(b);
          });
          stages.push_back(Stage::Map(ProjectMap("project_" + tag, cur, keep)));
          cur = Schema(keep);
          break;
        }
        default: {  // append a constant column (integer or float mode)
          const std::string field = "C" + std::to_string(const_counter++);
          std::vector<std::string> fields = cur.fields();
          stages.push_back(Stage::Map(
              AppendConstMap("append_" + tag, cur, field, val(0, 5))));
          fields.push_back(field);
          cur = Schema(fields);
          break;
        }
      }
    }

    JobSpec spec;
    spec.def.id = "J" + std::to_string(j);
    spec.def.inputs = {In(in.id, std::move(stages))};
    spec.def.map_output_schema = cur;
    spec.output_id = "D" + std::to_string(j);

    const bool reduce = cur.fields().size() >= 2 && rng.NextInt(0, 2) != 0;
    if (reduce) {
      const std::string group = cur.fields()[0];
      std::vector<AggSpec> aggs;
      const int num_aggs = 1 + static_cast<int>(rng.NextInt(0, 1));
      for (int a = 0; a < num_aggs; ++a) {
        const auto& field = cur.fields()[static_cast<size_t>(
            rng.NextInt(1, cur.fields().size() - 1))];
        static const AggOp kOps[] = {AggOp::kSum, AggOp::kMax, AggOp::kMin,
                                     AggOp::kCount, AggOp::kAvg};
        aggs.push_back({field, kOps[rng.NextInt(0, 4)],
                        "A" + std::to_string(j) + "_" + std::to_string(a)});
      }
      spec.output_schema = AggOutputSchema({group}, aggs);
      spec.def.reduce_stages = {Stage::Reduce(
          AggReduce("agg_j" + std::to_string(j), cur, {group}, aggs),
          {group})};
      SchemaAnnotation sa;
      sa.k1 = FieldSet{group};
      sa.k2 = FieldSet{group};
      sa.k3 = FieldSet{group};
      FieldSet rest;
      for (const std::string& field : cur.fields()) {
        if (field != group) rest.insert(field);
      }
      sa.v1 = rest;
      sa.v2 = rest;
      FieldSet produced;
      for (const AggSpec& a : aggs) produced.insert(a.out_field);
      sa.v3 = produced;
      spec.def.schema_ann = sa;
    } else {
      spec.output_schema = cur;
    }
    spec.def.output = spec.output_id;
    avail.push_back({spec.output_id, spec.output_schema,
                     static_cast<int>(specs.size())});
    specs.push_back(std::move(spec));
  }

  // Diamond sharing: one producer feeds two filtered consumers whose
  // outputs a rejoin job reads as two branch inputs of one branch.
  // Vertical packing of the diamond tees the shared stream, and the rejoin
  // exercises multi-input shuffle merging.
  if (rng.NextInt(0, 1) == 0) {
    size_t pick = static_cast<size_t>(rng.NextInt(0, avail.size() - 1));
    Avail& p = avail[pick];
    if (p.spec_index >= 0) specs[p.spec_index].consumed = true;
    const Schema ps = p.schema;
    std::vector<std::string> arms;
    for (int arm = 0; arm < 2; ++arm) {
      const std::string tag = "d" + std::to_string(arm);
      const auto& field = ps.fields()[static_cast<size_t>(
          rng.NextInt(0, ps.fields().size() - 1))];
      const double lo = static_cast<double>(rng.NextInt(0, 20));
      const double hi = lo + static_cast<double>(rng.NextInt(30, 90));
      JobSpec spec;
      spec.def.id = "JD" + std::to_string(arm);
      spec.def.inputs = {In(p.id, {Stage::Map(FilterRangeMap(
                                "filter_" + tag, ps, field, lo, hi))})};
      spec.def.map_output_schema = ps;
      spec.output_id = "DD" + std::to_string(arm);
      spec.output_schema = ps;
      spec.def.output = spec.output_id;
      spec.consumed = true;  // the rejoin below reads it
      arms.push_back(spec.output_id);
      specs.push_back(std::move(spec));
    }
    const std::string group = ps.fields()[0];
    std::vector<AggSpec> aggs = {{ps.fields()[1], AggOp::kSum, "DS"}};
    JobSpec spec;
    spec.def.id = "JDj";
    spec.def.inputs = {In(arms[0], {}), In(arms[1], {})};
    spec.def.map_output_schema = ps;
    spec.output_schema = AggOutputSchema({group}, aggs);
    spec.def.reduce_stages = {Stage::Reduce(
        AggReduce("agg_dj", ps, {group}, aggs), {group})};
    SchemaAnnotation sa;
    sa.k1 = FieldSet{group};
    sa.k2 = FieldSet{group};
    sa.k3 = FieldSet{group};
    FieldSet rest;
    for (const std::string& field : ps.fields()) {
      if (field != group) rest.insert(field);
    }
    sa.v1 = rest;
    sa.v2 = rest;
    sa.v3 = FieldSet{"DS"};
    spec.def.schema_ann = sa;
    spec.output_id = "DDJ";
    spec.def.output = spec.output_id;
    specs.push_back(std::move(spec));
  }

  // Multi-input join: half the seeds add a second base relation and a job
  // that reads BOTH bases as branch inputs of one shuffle (a filtered arm
  // over BASE merged with an unfiltered arm over BASE2) into a grouped
  // aggregate — the cross-relation join shape stubbyd traces replay, which
  // the single-base chains above never produce.
  if (rng.NextInt(0, 1) == 0) {
    const int rows2 = 300 + static_cast<int>(rng.NextInt(0, 300));
    std::vector<Row> data2;
    data2.reserve(static_cast<size_t>(rows2));
    for (int i = 0; i < rows2; ++i) {
      data2.push_back(Row{Value(rng.NextInt(0, 19)), Value(rng.NextInt(0, 9)),
                          val(0, 99)});
    }
    STUBBY_RETURN_NOT_OK(f.AddBase("BASE2", base_schema, Layout{}, 4,
                                   std::move(data2), kGB));
    const auto& field = base_schema.fields()[static_cast<size_t>(
        rng.NextInt(0, base_schema.fields().size() - 1))];
    const double lo = static_cast<double>(rng.NextInt(0, 20));
    const double hi = lo + static_cast<double>(rng.NextInt(30, 90));
    const std::string group = base_schema.fields()[0];
    std::vector<AggSpec> aggs = {{base_schema.fields()[2], AggOp::kSum,
                                  "JS"}};
    JobSpec spec;
    spec.def.id = "JX";
    spec.def.inputs = {In("BASE", {Stage::Map(FilterRangeMap(
                              "filter_jx", base_schema, field, lo, hi))}),
                       In("BASE2", {})};
    spec.def.map_output_schema = base_schema;
    spec.output_schema = AggOutputSchema({group}, aggs);
    spec.def.reduce_stages = {Stage::Reduce(
        AggReduce("agg_jx", base_schema, {group}, aggs), {group})};
    SchemaAnnotation sa;
    sa.k1 = FieldSet{group};
    sa.k2 = FieldSet{group};
    sa.k3 = FieldSet{group};
    FieldSet rest;
    for (const std::string& bf : base_schema.fields()) {
      if (bf != group) rest.insert(bf);
    }
    sa.v1 = rest;
    sa.v2 = rest;
    sa.v3 = FieldSet{"JS"};
    spec.def.schema_ann = sa;
    spec.output_id = "DJX";
    spec.def.output = spec.output_id;
    specs.push_back(std::move(spec));
  }

  // Selective inner join: half the seeds add a narrow build relation R and
  // a wider probe relation S, tagged and inner-joined on K by one
  // InnerJoinReduce. R's arm filters K to a 20-wide window over a 200-key
  // space, so most S rows have no join partner — the low-selectivity shape
  // the bloom-transfer transformation targets. The JoinAnnotation marks
  // both inputs filterable; the FilterAnnotation on the group key lets the
  // transform bound the probe pass fraction from a profiled histogram.
  // (Appended after every older shape so existing seeds keep their rng
  // draw sequence, hence their exact topology and data.)
  if (rng.NextInt(0, 1) == 0) {
    const int rows_r = 300 + static_cast<int>(rng.NextInt(0, 300));
    std::vector<Row> data_r;
    data_r.reserve(static_cast<size_t>(rows_r));
    for (int i = 0; i < rows_r; ++i) {
      data_r.push_back(Row{Value(rng.NextInt(0, 199)),
                           Value(rng.NextInt(0, 9)), val(0, 99)});
    }
    STUBBY_RETURN_NOT_OK(f.AddBase("BASER", base_schema, Layout{}, 4,
                                   std::move(data_r), kGB));
    const int rows_s = 600 + static_cast<int>(rng.NextInt(0, 600));
    std::vector<Row> data_s;
    data_s.reserve(static_cast<size_t>(rows_s));
    for (int i = 0; i < rows_s; ++i) {
      data_s.push_back(Row{Value(rng.NextInt(0, 199)),
                           Value(rng.NextInt(0, 9)), val(0, 99)});
    }
    STUBBY_RETURN_NOT_OK(f.AddBase("BASES", base_schema, Layout{}, 4,
                                   std::move(data_s), 2 * kGB));

    const double lo = static_cast<double>(rng.NextInt(0, 180));
    const double hi = lo + 20.0;
    // Tags stay exact integers even in float mode: the join's tag-presence
    // test (like grouping) must not depend on summation order.
    Schema tagged({"K", "G", "V", "T"});
    std::vector<AggSpec> aggs = {{"V", AggOp::kSum, "BS"}};
    JobSpec spec;
    spec.def.id = "JB";
    spec.def.inputs = {
        In("BASER",
           {Stage::Map(
                FilterRangeMap("filter_jb", base_schema, "K", lo, hi)),
            Stage::Map(AppendConstMap("tag_jb0", base_schema, "T",
                                      Value(static_cast<int64_t>(0))))}),
        In("BASES",
           {Stage::Map(AppendConstMap("tag_jb1", base_schema, "T",
                                      Value(static_cast<int64_t>(1))))})};
    spec.def.map_output_schema = tagged;
    spec.output_schema = AggOutputSchema({"K"}, aggs);
    spec.def.reduce_stages = {Stage::Reduce(
        InnerJoinReduce("join_jb", tagged, {"K"}, "T", {0, 1}, aggs),
        {"K"})};
    JoinAnnotation ja;
    ja.filterable_inputs = {0, 1};
    spec.def.join_ann = ja;
    FilterAnnotation fa;
    fa.field = "K";
    fa.lo = lo;
    fa.hi = hi;
    spec.def.filter_ann = fa;
    spec.output_id = "DJB";
    spec.def.output = spec.output_id;
    specs.push_back(std::move(spec));
  }

  // Unconsumed outputs are the workflow terminals (the last job's always is).
  for (JobSpec& spec : specs) {
    STUBBY_RETURN_NOT_OK(
        f.AddDataset(spec.output_id, spec.output_schema, !spec.consumed));
  }
  for (JobSpec& spec : specs) {
    STUBBY_RETURN_NOT_OK(f.AddJob(std::move(spec.def)));
  }
  STUBBY_RETURN_NOT_OK(f.plan().Validate());
  return f;
}

}  // namespace stubby
