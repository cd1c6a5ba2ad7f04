#include "profiler/profiler.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/strings.h"
#include "exec/job_runner.h"
#include "exec/wrappers.h"

namespace stubby {

namespace {

uint64_t RowsBytes(const std::vector<Row>& rows) {
  uint64_t b = 0;
  for (const Row& r : rows) b += r.SerializedSize();
  return b;
}

/// Deterministic perturbation in [-1, 1] keyed by a name.
double NoiseFor(const std::string& key) {
  uint64_t h = HashString(key);
  return (static_cast<double>(h % 2001) - 1000.0) / 1000.0;
}

/// Runs one stage over `rows` (sorting first for grouped stages) and
/// returns the output rows; fills `stats`. `sort_fields` (when non-empty)
/// orders the stream the way the real shuffle would — order-sensitive
/// reduce functions (e.g. tagged joins expecting the build row first)
/// depend on the full per-partition sort order, not just the grouping.
Result<std::vector<Row>> MeasureStage(
    const Stage& stage, const Schema& in_schema, std::vector<Row> rows,
    const ProfilerOptions& options, const std::string& noise_key,
    const std::vector<std::string>& sort_fields, StageStats* stats) {
  uint64_t in_records = rows.size();
  uint64_t in_bytes = RowsBytes(rows);

  uint64_t groups = 0;
  if (stage.kind == Stage::Kind::kReduce) {
    const std::vector<std::string>& order =
        sort_fields.empty() ? stage.group_fields : sort_fields;
    STUBBY_ASSIGN_OR_RETURN(std::vector<size_t> sort_idx,
                            in_schema.IndicesOf(order));
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Row& a, const Row& b) {
                       return CompareOnFields(a, b, sort_idx) < 0;
                     });
    STUBBY_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                            in_schema.IndicesOf(stage.group_fields));
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i == 0 || !EqualOnFields(rows[i - 1], rows[i], idx)) ++groups;
    }
  }

  // Execute the single stage through the standard pipeline machinery.
  Stage clean = stage;
  clean.tee_dataset.clear();  // measurement must not materialize tees
  VectorEmitter out;
  STUBBY_ASSIGN_OR_RETURN(
      std::unique_ptr<PipelineRunner> runner,
      PipelineRunner::Make({clean}, in_schema, &out, nullptr));
  for (const Row& r : rows) runner->Emit(r);
  runner->Finish();

  uint64_t out_records = out.rows().size();
  uint64_t out_bytes = RowsBytes(out.rows());

  StageStats s;
  s.record_selectivity =
      in_records > 0 ? static_cast<double>(out_records) / in_records : 1.0;
  s.byte_selectivity =
      in_bytes > 0 ? static_cast<double>(out_bytes) / in_bytes : 1.0;
  s.cpu_per_record = stage.kind == Stage::Kind::kMap
                         ? stage.map_fn->cpu_cost_per_record()
                         : stage.reduce_fn->cpu_cost_per_record();
  s.groups_per_record =
      in_records > 0 ? static_cast<double>(groups) / in_records : 1.0;

  if (options.noise > 0.0) {
    double n = 1.0 + options.noise * NoiseFor(noise_key);
    s.record_selectivity *= n;
    s.byte_selectivity *= n;
    s.cpu_per_record *= 1.0 + options.noise * NoiseFor(noise_key + "#cpu");
  }
  *stats = s;
  return std::move(out.rows());
}

/// Builds a histogram over a numeric field of `rows` (nullopt if the field
/// is non-numeric or rows are empty).
std::optional<KeyHistogram> BuildHistogram(const std::vector<Row>& rows,
                                           const Schema& schema,
                                           const std::string& field,
                                           int buckets) {
  auto idx = schema.IndexOf(field);
  if (!idx || rows.empty()) return std::nullopt;
  if (rows.front()[*idx].is_string()) return std::nullopt;

  KeyHistogram h;
  h.field = field;
  h.min = rows.front()[*idx].AsDouble();
  h.max = h.min;
  std::map<double, uint64_t> counts;
  for (const Row& r : rows) {
    double v = r[*idx].AsDouble();
    h.min = std::min(h.min, v);
    h.max = std::max(h.max, v);
    counts[v]++;
  }
  h.distinct = counts.size();

  // Extract the most frequent values as point masses (at least 2% of the
  // records each, up to 8 of them); the rest goes into equi-width buckets.
  constexpr size_t kMaxHitters = 8;
  std::vector<std::pair<uint64_t, double>> by_count;
  for (const auto& [v, c] : counts) by_count.emplace_back(c, v);
  std::sort(by_count.rbegin(), by_count.rend());
  const double n = static_cast<double>(rows.size());
  h.max_key_fraction = by_count.empty() ? 0.0 : by_count[0].first / n;
  std::set<double> hitter_values;
  for (size_t i = 0; i < by_count.size() && i < kMaxHitters; ++i) {
    double fraction = static_cast<double>(by_count[i].first) / n;
    if (fraction < 0.02) break;
    h.heavy_hitters.emplace_back(by_count[i].second, fraction);
    hitter_values.insert(by_count[i].second);
  }

  h.bucket_fractions.assign(static_cast<size_t>(buckets), 0.0);
  double width = (h.max - h.min) / buckets;
  for (const auto& [v, c] : counts) {
    if (hitter_values.count(v)) continue;
    int b = width > 0
                ? std::min(buckets - 1, static_cast<int>((v - h.min) / width))
                : 0;
    h.bucket_fractions[static_cast<size_t>(b)] += static_cast<double>(c) / n;
  }
  return h;
}

}  // namespace

Status Profiler::ProfileJob(const Plan& plan, JobVertex* job,
                            const Dfs& dfs) const {
  (void)plan;
  for (Branch& b : job->branches) {
    std::vector<Row> map_out;
    uint64_t input_records = 0;
    uint64_t input_bytes = 0;

    for (BranchInput& in : b.inputs) {
      STUBBY_ASSIGN_OR_RETURN(DatasetPtr ds, dfs.Get(in.dataset_id));
      // Read exactly the partition set the executor reads.
      STUBBY_ASSIGN_OR_RETURN(std::vector<int> parts,
                              SelectedPartitions(*ds, in.prune_partitions));
      std::vector<Row> rows;
      for (int p : parts) {
        const std::vector<Row>& part = ds->partition(static_cast<size_t>(p));
        rows.insert(rows.end(), part.begin(), part.end());
      }
      input_records += rows.size();
      input_bytes += RowsBytes(rows);

      Schema cur = ds->schema();
      for (Stage& s : in.map_stages) {
        StageStats stats;
        STUBBY_ASSIGN_OR_RETURN(
            rows, MeasureStage(s, cur, std::move(rows), options_,
                               job->id + "/" + b.tag + "/" + s.name(),
                               {}, &stats));
        s.stats = stats;
        cur = s.output_schema();
      }
      map_out.insert(map_out.end(), std::make_move_iterator(rows.begin()),
                     std::make_move_iterator(rows.end()));
    }

    if (b.merge_mode()) {
      STUBBY_ASSIGN_OR_RETURN(std::vector<size_t> idx,
                              b.merge_schema.IndicesOf(b.merge_sort_fields));
      std::stable_sort(map_out.begin(), map_out.end(),
                       [&](const Row& x, const Row& y) {
                         return CompareOnFields(x, y, idx) < 0;
                       });
      Schema cur = b.merge_schema;
      bool first_merged = true;
      for (Stage& s : b.merged_map_stages) {
        StageStats stats;
        STUBBY_ASSIGN_OR_RETURN(
            map_out, MeasureStage(s, cur, std::move(map_out), options_,
                                  job->id + "/" + b.tag + "/" + s.name(),
                                  first_merged ? b.merge_sort_fields
                                               : std::vector<std::string>{},
                                  &stats));
        first_merged = false;
        s.stats = stats;
        cur = s.output_schema();
      }
    }

    // Job-level profile: input record size, map-output key histograms, and
    // the K2 group statistics.
    ProfileAnnotation profile;
    if (b.annotations.profile) profile = *b.annotations.profile;
    profile.key_histograms.clear();
    profile.avg_input_record_bytes =
        input_records > 0 ? static_cast<double>(input_bytes) / input_records
                          : 100.0;
    for (const auto& field : b.map_output_schema.fields()) {
      auto h = BuildHistogram(map_out, b.map_output_schema, field,
                              options_.histogram_buckets);
      if (h) profile.key_histograms.push_back(std::move(*h));
    }

    if (!b.map_only()) {
      std::vector<std::string> group = b.GroupFields();
      STUBBY_ASSIGN_OR_RETURN(std::vector<size_t> group_idx,
                              b.map_output_schema.IndicesOf(group));
      // Distinct K2 groups and the heavy-hitter group share.
      {
        std::map<uint64_t, uint64_t> group_counts;
        for (const Row& r : map_out) {
          group_counts[HashOnFields(r, group_idx)]++;
        }
        profile.k2_distinct_groups =
            static_cast<double>(group_counts.size());
        uint64_t top = 0;
        for (const auto& [k, c] : group_counts) top = std::max(top, c);
        profile.k2_max_group_fraction =
            map_out.empty() ? 0.0
                            : static_cast<double>(top) /
                                  static_cast<double>(map_out.size());
      }
      // The what-if engine models combining from k2_distinct_groups; the
      // profile carries only the combine function's CPU cost.
      if (b.combiner != nullptr && !map_out.empty()) {
        profile.combine_cpu_per_record = b.combiner->cpu_cost_per_record();
      }

      // Reduce-side stages: profile against the grouped map output.
      std::vector<Row> rows = std::move(map_out);
      Schema cur = b.map_output_schema;
      bool first_reduce = true;
      for (Stage& s : b.reduce_stages) {
        StageStats stats;
        STUBBY_ASSIGN_OR_RETURN(
            rows, MeasureStage(s, cur, std::move(rows), options_,
                               job->id + "/" + b.tag + "/" + s.name(),
                               first_reduce ? b.partition.sort_fields
                                            : std::vector<std::string>{},
                               &stats));
        first_reduce = false;
        s.stats = stats;
        cur = s.output_schema();
      }
    }
    b.annotations.profile = std::move(profile);
  }
  return Status::OK();
}

Status Profiler::ProfilePlan(Plan* plan, Dfs* dfs) const {
  STUBBY_ASSIGN_OR_RETURN(std::vector<std::string> order,
                          plan->TopologicalOrder());
  JobRunner runner(cluster_);
  for (const auto& jid : order) {
    STUBBY_ASSIGN_OR_RETURN(JobVertex * job, plan->GetMutableJob(jid));
    STUBBY_RETURN_NOT_OK(ProfileJob(*plan, job, *dfs));
    // Execute the job so downstream jobs profile against its real output.
    auto df = runner.Run(*plan, *job, dfs);
    if (!df.ok()) return df.status();
  }
  return Status::OK();
}

}  // namespace stubby
