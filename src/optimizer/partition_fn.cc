#include "optimizer/partition_fn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/strings.h"

namespace stubby {

namespace {

constexpr double kBoundaryEps = 1e-9;

/// Candidate pruning site: a consumer input reading the job's output with a
/// filter annotation on the partition field.
struct PruneSite {
  std::string consumer_id;
  size_t branch_index;
  size_t input_index;
  double lo;
  double hi;
};

}  // namespace

std::vector<Application> PartitionFunctionTransform::FindApplications(
    const Plan& plan, const std::vector<std::string>& unit_jobs) const {
  std::vector<Application> apps;

  // Partition pruning against already-range-partitioned datasets (typically
  // base inputs whose loader recorded range split points, e.g. uservisits
  // partitioned by date): no partition function changes, just set the
  // consumer's input descriptor to the partitions its filter needs.
  for (const std::string& jid : unit_jobs) {
    auto jr = plan.GetJob(jid);
    if (!jr.ok()) continue;
    const JobVertex& job = **jr;
    for (size_t bi = 0; bi < job.branches.size(); ++bi) {
      const Branch& b = job.branches[bi];
      if (!b.annotations.filter) continue;
      const FilterAnnotation& filter = *b.annotations.filter;
      for (size_t ii = 0; ii < b.inputs.size(); ++ii) {
        const BranchInput& in = b.inputs[ii];
        if (in.aligned || !in.prune_partitions.empty()) continue;
        auto dvr = plan.GetDataset(in.dataset_id);
        if (!dvr.ok()) continue;
        const DatasetAnnotation& ann = (*dvr)->annotation;
        if (!ann.layout || !ann.layout->partitioning) continue;
        const PartitionSpec& ps = *ann.layout->partitioning;
        if (ps.type != PartitionType::kRange || ps.split_points.empty() ||
            ps.partition_fields.size() != 1 ||
            ps.partition_fields[0] != filter.field) {
          continue;
        }
        std::vector<int> selected;
        int total = static_cast<int>(ps.split_points.size()) + 1;
        for (int p = 0; p < total; ++p) {
          double p_lo = (p == 0)
                            ? -std::numeric_limits<double>::infinity()
                            : ps.split_points[static_cast<size_t>(p - 1)][0]
                                  .AsDouble();
          double p_hi = (p == total - 1)
                            ? std::numeric_limits<double>::infinity()
                            : ps.split_points[static_cast<size_t>(p)][0]
                                  .AsDouble();
          if (p_lo < filter.hi && p_hi > filter.lo) selected.push_back(p);
        }
        if (selected.empty() ||
            static_cast<int>(selected.size()) >= total) {
          continue;  // nothing pruned
        }
        Application app;
        app.transform_name = name();
        app.description = StrFormat(
            "prune %s's read of %s to %zu/%d partitions (filter %s)",
            jid.c_str(), in.dataset_id.c_str(), selected.size(), total,
            filter.ToString().c_str());
        double fraction =
            static_cast<double>(selected.size()) / static_cast<double>(total);
        app.apply = [jid, bi, ii, selected,
                     fraction](const Plan& plan_in) -> Result<Plan> {
          Plan np = plan_in;
          STUBBY_ASSIGN_OR_RETURN(JobVertex * j2, np.GetMutableJob(jid));
          BranchInput& input = j2->branches[bi].inputs[ii];
          input.prune_partitions = selected;
          input.prune_fraction = fraction;
          STUBBY_RETURN_NOT_OK(np.Validate());
          return np;
        };
        apps.push_back(std::move(app));
      }
    }
  }

  // Reverting range partitioning to the default hash partitioning (on the
  // branch's grouping key) un-pins the reduce-task count — useful when a
  // later packing decision values the configuration freedom more than the
  // balanced ranges.
  for (const std::string& jid : unit_jobs) {
    auto jr = plan.GetJob(jid);
    if (!jr.ok()) continue;
    const JobVertex& job = **jr;
    if (job.conditions.partition_frozen) continue;
    for (size_t bi = 0; bi < job.branches.size(); ++bi) {
      const Branch& b = job.branches[bi];
      if (b.map_only() || b.partition.type != PartitionType::kRange ||
          b.partition.split_points.empty()) {
        continue;
      }
      // Consumers pruning on the range layout would be invalidated.
      bool prune_dependent = false;
      for (const std::string& cid : plan.ConsumersOf(b.output_dataset)) {
        auto cr = plan.GetJob(cid);
        if (!cr.ok()) continue;
        for (const Branch& cb : (*cr)->branches) {
          for (const BranchInput& cin : cb.inputs) {
            if (cin.dataset_id == b.output_dataset &&
                (!cin.prune_partitions.empty() || cin.aligned)) {
              prune_dependent = true;
            }
          }
        }
      }
      if (prune_dependent) continue;
      Application app;
      app.transform_name = name();
      app.description =
          StrFormat("hash-partition %s (revert range)", jid.c_str());
      app.apply = [jid, bi](const Plan& plan_in) -> Result<Plan> {
        Plan np = plan_in;
        STUBBY_ASSIGN_OR_RETURN(JobVertex * j2, np.GetMutableJob(jid));
        Branch& b2 = j2->branches[bi];
        b2.partition.type = PartitionType::kHash;
        b2.partition.partition_fields = b2.GroupFields();
        b2.partition.split_points = {};
        auto dv = np.GetMutableDataset(b2.output_dataset);
        if (dv.ok()) {
          (*dv)->layout = DeriveOutputLayout(b2, j2->config, (*dv)->schema);
          (*dv)->annotation.layout = (*dv)->layout;
          (*dv)->annotation.num_partitions.reset();
        }
        STUBBY_RETURN_NOT_OK(np.Validate());
        return np;
      };
      apps.push_back(std::move(app));
    }
  }

  for (const std::string& jid : unit_jobs) {
    auto jr = plan.GetJob(jid);
    if (!jr.ok()) continue;
    const JobVertex& job = **jr;
    if (job.branches.size() != 1) continue;
    const Branch& b = job.branches[0];
    if (b.map_only()) continue;
    if (job.conditions.partition_frozen) continue;
    if (b.partition.type != PartitionType::kHash) continue;
    if (b.partition.partition_fields.empty()) continue;
    if (!b.annotations.profile) continue;

    const std::string field = b.partition.partition_fields[0];
    const KeyHistogram* hist = b.annotations.profile->FindHistogram(field);
    if (hist == nullptr || hist->max <= hist->min) continue;

    // Filter annotations of consumers reading this job's output enable
    // pruning when the split points respect their boundaries.
    std::vector<PruneSite> sites;
    std::vector<double> boundaries;
    for (const std::string& cid : plan.ConsumersOf(b.output_dataset)) {
      auto cr = plan.GetJob(cid);
      if (!cr.ok()) continue;
      const JobVertex& cj = **cr;
      for (size_t bi = 0; bi < cj.branches.size(); ++bi) {
        const Branch& cb = cj.branches[bi];
        if (!cb.annotations.filter || cb.annotations.filter->field != field) {
          continue;
        }
        for (size_t ii = 0; ii < cb.inputs.size(); ++ii) {
          const BranchInput& in = cb.inputs[ii];
          if (in.dataset_id != b.output_dataset) continue;
          if (in.aligned || !in.prune_partitions.empty()) continue;
          sites.push_back(PruneSite{cid, bi, ii, cb.annotations.filter->lo,
                                    cb.annotations.filter->hi});
          boundaries.push_back(cb.annotations.filter->lo);
          boundaries.push_back(cb.annotations.filter->hi);
        }
      }
    }

    // Split points: consumer filter boundaries first, padded with quantiles
    // of the key distribution. Range partitioning pins the reduce-task
    // count to splits+1, so enumerate both a one-wave and a two-wave
    // variant (the job's current setting as a floor) and let the cost-based
    // search decide.
    const int slots = plan.cluster().total_reduce_slots();
    std::set<int> targets;
    if (job.conditions.num_reduce_fixed) {
      // A pinned reduce-task count takes precedence over range split points
      // in EffectiveReduceTasks, so only a spec with at most that many
      // partitions can execute.
      targets = {*job.conditions.num_reduce_fixed};
    } else {
      targets = {std::max(job.EffectiveReduceTasks(), slots),
                 std::max(job.EffectiveReduceTasks(), 2 * slots)};
    }
    for (int R : targets) {
    std::vector<double> splits;
    for (double v : boundaries) {
      if (v > hist->min + kBoundaryEps && v < hist->max - kBoundaryEps) {
        splits.push_back(v);
      }
    }
    int want = std::max(static_cast<int>(splits.size()), R - 1);
    for (int k = 1; k < R && static_cast<int>(splits.size()) < want; ++k) {
      double q = hist->Quantile(static_cast<double>(k) / R);
      bool close = std::any_of(splits.begin(), splits.end(), [&](double s) {
        return std::fabs(s - q) <
               (hist->max - hist->min) * 1e-3;
      });
      if (!close && q > hist->min && q < hist->max) splits.push_back(q);
    }
    std::sort(splits.begin(), splits.end());
    splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
    if (splits.empty()) continue;
    // Consumer filter boundaries can push the split count past a pinned
    // reduce-task count; such a spec could never execute.
    if (job.conditions.num_reduce_fixed &&
        static_cast<int>(splits.size()) + 1 >
            *job.conditions.num_reduce_fixed) {
      continue;
    }

    Application app;
    app.transform_name = name();
    app.description = StrFormat(
        "range-partition %s on %s (%zu splits%s)", jid.c_str(), field.c_str(),
        splits.size(), sites.empty() ? "" : ", enables pruning");
    KeyHistogram hist_copy = *hist;
    // Built once: every plan this application produces shares the rows.
    std::vector<Row> split_rows;
    split_rows.reserve(splits.size());
    for (double s : splits) split_rows.push_back(Row{s});
    SplitPoints split_points(std::move(split_rows));
    app.apply = [jid, field, splits, split_points, sites,
                 hist_copy](const Plan& plan_in) -> Result<Plan> {
      Plan np = plan_in;
      STUBBY_ASSIGN_OR_RETURN(JobVertex * job2, np.GetMutableJob(jid));
      Branch& b2 = job2->branches[0];
      b2.partition.type = PartitionType::kRange;
      b2.partition.partition_fields = {field};
      b2.partition.split_points = split_points;

      STUBBY_ASSIGN_OR_RETURN(DatasetVertex * dv,
                              np.GetMutableDataset(b2.output_dataset));
      dv->layout = DeriveOutputLayout(b2, job2->config, dv->schema);
      dv->annotation.layout = dv->layout;
      dv->annotation.num_partitions =
          static_cast<int>(splits.size()) + 1;

      // Point each filtered consumer at the relevant partitions only.
      for (const PruneSite& site : sites) {
        STUBBY_ASSIGN_OR_RETURN(JobVertex * cj,
                                np.GetMutableJob(site.consumer_id));
        BranchInput& in = cj->branches[site.branch_index]
                              .inputs[site.input_index];
        in.prune_partitions.clear();
        // Partition p covers [split[p-1], split[p]).
        for (size_t p = 0; p <= splits.size(); ++p) {
          double p_lo = (p == 0) ? hist_copy.min : splits[p - 1];
          double p_hi = (p == splits.size())
                            ? hist_copy.max + 1.0
                            : splits[p];
          if (p_lo < site.hi && p_hi > site.lo) {
            in.prune_partitions.push_back(static_cast<int>(p));
          }
        }
        in.prune_fraction =
            hist_copy.FractionInRange(site.lo, site.hi);
        if (in.prune_fraction <= 0.0) in.prune_fraction = 0.01;
      }
      STUBBY_RETURN_NOT_OK(np.Validate());
      return np;
    };
    apps.push_back(std::move(app));
    }  // for targets
  }
  return apps;
}

}  // namespace stubby
