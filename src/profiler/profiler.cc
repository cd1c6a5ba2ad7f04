#include "profiler/profiler.h"

#include <algorithm>
#include <functional>

#include "common/strings.h"
#include "exec/job_runner.h"

namespace stubby {

namespace {

/// Buckets per collected key histogram.
constexpr int kHistogramBuckets = 32;

/// Deterministic perturbation in [-1, 1] keyed by a name.
double NoiseFor(const std::string& key) {
  uint64_t h = HashString(key);
  return (static_cast<double>(h % 2001) - 1000.0) / 1000.0;
}

/// `num / den`, or 1 when nothing came in.
double Ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 1.0;
}

/// The statistics of `stage` from the counts its observed run took.
StageStats StatsOf(const Stage& stage, const StageCounts& counts,
                   double noise, const std::string& noise_key) {
  StageStats s;
  s.record_selectivity = Ratio(counts.records_out, counts.records_in);
  s.byte_selectivity = Ratio(counts.bytes_out, counts.bytes_in);
  s.cpu_per_record = stage.kind == Stage::Kind::kMap
                         ? stage.map_fn->cpu_cost_per_record()
                         : stage.reduce_fn->cpu_cost_per_record();
  s.groups_per_record = Ratio(counts.groups, counts.records_in);
  if (noise > 0.0) {
    double n = 1.0 + noise * NoiseFor(noise_key);
    s.record_selectivity *= n;
    s.byte_selectivity *= n;
    s.cpu_per_record *= 1.0 + noise * NoiseFor(noise_key + "#cpu");
  }
  return s;
}

/// The histogram of a numeric field from its (non-empty) value runs.
KeyHistogram HistogramOf(const std::string& field,
                         const ValueRuns<double>& runs) {
  KeyHistogram h;
  h.field = field;
  h.min = runs.front().first;
  h.max = runs.back().first;
  h.distinct = runs.size();
  uint64_t records = 0;
  for (const auto& [v, c] : runs) records += c;
  const double n = static_cast<double>(records);

  // Extract the most frequent values as point masses (at least 2% of the
  // records each, up to 8 of them); the rest goes into equi-width buckets.
  constexpr size_t kMaxHitters = 8;
  std::vector<std::pair<uint64_t, double>> by_count;
  by_count.reserve(runs.size());
  for (const auto& [v, c] : runs) by_count.emplace_back(c, v);
  const size_t top = std::min(kMaxHitters, by_count.size());
  std::partial_sort(by_count.begin(), by_count.begin() + top, by_count.end(),
                    std::greater<>());
  h.max_key_fraction = static_cast<double>(by_count[0].first) / n;
  for (size_t i = 0; i < top; ++i) {
    double fraction = static_cast<double>(by_count[i].first) / n;
    if (fraction < 0.02) break;
    h.heavy_hitters.emplace_back(by_count[i].second, fraction);
  }
  auto is_hitter = [&](double v) {
    return std::any_of(h.heavy_hitters.begin(), h.heavy_hitters.end(),
                       [&](const auto& hitter) { return hitter.first == v; });
  };

  h.bucket_fractions.assign(static_cast<size_t>(kHistogramBuckets), 0.0);
  double width = (h.max - h.min) / kHistogramBuckets;
  for (const auto& [v, c] : runs) {
    if (is_hitter(v)) continue;
    int b = width > 0 ? std::min(kHistogramBuckets - 1,
                                 static_cast<int>((v - h.min) / width))
                      : 0;
    h.bucket_fractions[static_cast<size_t>(b)] += static_cast<double>(c) / n;
  }
  return h;
}

/// Records what the observed run saw of branch `b` into its stages' stats
/// and its profile annotation.
void Annotate(const std::string& job_id, const BranchObservation& seen,
              double noise, Branch* b) {
  auto record = [&](std::vector<Stage>& stages,
                    const std::vector<StageCounts>& counts) {
    for (size_t si = 0; si < stages.size(); ++si) {
      stages[si].stats =
          StatsOf(stages[si], counts[si], noise,
                  job_id + "/" + b->tag + "/" + stages[si].name());
    }
  };
  uint64_t input_records = 0;
  uint64_t input_bytes = 0;
  for (size_t ii = 0; ii < b->inputs.size(); ++ii) {
    input_records += seen.inputs[ii].records;
    input_bytes += seen.inputs[ii].bytes;
    record(b->inputs[ii].map_stages, seen.inputs[ii].map_stages);
  }
  record(b->merged_map_stages, seen.merged_map_stages);
  // The first grouped stage is recorded against the pre-combine map
  // output: the what-if engine prices its output on that volume.
  std::vector<StageCounts> reduce = seen.reduce_stages;
  if (!reduce.empty() && b->reduce_stages[0].kind == Stage::Kind::kReduce) {
    reduce[0].records_in = seen.map_output_records;
    reduce[0].bytes_in = seen.map_output_bytes;
  }
  record(b->reduce_stages, reduce);

  // Job-level profile: input record size, map-output key histograms, and
  // the K2 group statistics.
  ProfileAnnotation profile;
  if (b->annotations.profile) profile = *b->annotations.profile;
  profile.key_histograms.clear();
  profile.avg_input_record_bytes =
      input_records > 0 ? Ratio(input_bytes, input_records) : 100.0;
  const std::vector<std::string>& fields = b->map_output_schema.fields();
  for (size_t f = 0; f < fields.size(); ++f) {
    const std::optional<ValueRuns<double>>& runs = seen.field_runs[f];
    if (runs && !runs->empty()) {
      profile.key_histograms.push_back(HistogramOf(fields[f], *runs));
    }
  }
  if (!b->map_only()) {
    // Distinct K2 groups and the heavy-hitter group share.
    profile.k2_distinct_groups = static_cast<double>(seen.group_runs.size());
    uint64_t top = 0;
    for (const auto& [hash, n] : seen.group_runs) top = std::max(top, n);
    profile.k2_max_group_fraction =
        seen.map_output_records > 0 ? Ratio(top, seen.map_output_records)
                                    : 0.0;
    // The what-if engine models combining from k2_distinct_groups; the
    // profile carries only the combine function's CPU cost.
    if (b->combiner != nullptr && seen.map_output_records > 0) {
      profile.combine_cpu_per_record = b->combiner->cpu_cost_per_record();
    }
  }
  b->annotations.profile = std::move(profile);
}

}  // namespace

Status Profiler::ProfilePlan(Plan* plan, Dfs* dfs) const {
  STUBBY_ASSIGN_OR_RETURN(std::vector<std::string> order,
                          plan->TopologicalOrder());
  JobRunner runner(cluster_);
  for (const auto& jid : order) {
    STUBBY_ASSIGN_OR_RETURN(JobVertex * job, plan->GetMutableJob(jid));
    std::vector<BranchObservation> observation;
    auto df = runner.Run(*plan, *job, dfs, &observation);
    if (!df.ok()) return df.status();
    for (size_t bi = 0; bi < job->branches.size(); ++bi) {
      Annotate(job->id, observation[bi], options_.noise, &job->branches[bi]);
    }
  }
  return Status::OK();
}

}  // namespace stubby
