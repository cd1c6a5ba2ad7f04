// Content-addressed identity of datasets and jobs for cross-workflow result
// reuse (the ReStore direction: Elghandour & Aboulnaga, PVLDB 2012 — the
// sharing-based transformation class Stubby's Section 8 leaves out).
//
// The store must recognize that a job appearing in today's workflow is the
// same computation as a job executed yesterday under different vertex names.
// Plan-level identifiers (job ids, dataset ids, branch tags) are therefore
// excluded from every key; what remains is exactly what determines the
// output *bits* of a deterministic execution:
//
//   dataset lineage key
//     base input:  digest of the stored content (schema, layout, scale,
//                  per-partition rows)
//     produced:    H(producer's job reuse key, output index)
//
//   job reuse key
//     per-branch structure (input lineage keys, aligned/prune read shape,
//     logical stage pipeline, merge/partition/combiner shape, output
//     schemas) + the full job configuration + the cluster compression
//     ratio. Stage statistics, profiles, annotations, and prune-fraction
//     estimates are excluded — they steer the optimizer, not the bits.
//
//   map-stream key (sub-job reuse)
//     H(input lineage key, logical stage prefix) for a chain of *stateless*
//     map stages over an unaligned, unpruned scan. Statelessness makes the
//     concatenated output stream independent of task chunking, so a stream
//     produced by one job matches a prefix of another job with different
//     split sizes, configurations, or surrounding structure.

#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "cost/cost_cache.h"
#include "dfs/dfs.h"
#include "workflow/plan.h"

namespace stubby {

/// Digest of the full stored content of a dataset: schema, layout,
/// logical scale, and every partition's rows (boundaries included). Two
/// datasets with equal content keys are bit-identical snapshots.
CostKey DatasetContentKey(const StoredDataset& ds);

/// Lineage key of the `index`-th entry of the producing job's
/// OutputDatasets() order.
CostKey JobOutputKey(const CostKey& job_key, size_t index);

/// Key of the output stream of `stages` (a map-only pipeline) applied to
/// the dataset with lineage key `input`. Configuration-free: valid only
/// for pipelines that pass PrefixEligible.
CostKey MapStreamKey(const CostKey& input, const std::vector<Stage>& stages,
                     size_t prefix_len);

/// Key under which a workflow-terminal output is registered: the dataset's
/// original-plan lineage key salted with a digest of the optimizer options
/// that shaped the executed plan (optimized bits depend on the optimizer's
/// choices; recompute-equivalence is only guaranteed under equal options).
CostKey WorkflowOutputKey(const CostKey& original_lineage,
                          const CostKey& options_salt);

/// True when `stages[0..prefix_len)` of `in` within `b` form a
/// chunking-independent stream over an unaligned, unpruned scan: every
/// stage in the *whole* pipeline is a stateless, tee-free map (dropped
/// stages must replay identically; remaining stages must tolerate the new
/// task boundaries), the branch is not merge-mode, and no active combiner
/// regroups rows per task.
bool PrefixEligible(const Branch& b, const BranchInput& in,
                    const JobConfig& config, size_t prefix_len);

/// Lineage keys of every resolvable vertex of a plan. Datasets or jobs
/// whose identity cannot be established (a base input missing from `dfs`,
/// a job reading such a dataset) are simply absent — matching treats
/// absence as a miss.
struct PlanLineage {
  std::map<std::string, CostKey> datasets;  ///< dataset id -> lineage key
  std::map<std::string, CostKey> jobs;      ///< job id -> job reuse key
};

/// Job ids of `targets` plus every job upstream of them (through branch
/// inputs and split_points_from sample dependencies) — the exact set whose
/// reuse keys a scope-restricted rewrite probe can observe.
Result<std::set<std::string>> UpstreamJobClosure(
    const Plan& plan, const std::set<std::string>& targets);

/// Computes lineage keys in topological order. `dfs` supplies the content
/// of base-input datasets; produced datasets derive from their producer's
/// key, so intermediates need not exist yet. `seed` (optional) pre-resolves
/// dataset keys before derivation — the session uses it to give rewritten
/// materialized vertices their *original* lineage identity so downstream
/// registrations stay comparable across rewritten and recomputed runs.
/// `restrict_to` (optional) limits job key derivation to those job ids;
/// it must be upstream-closed (see UpstreamJobClosure), because a job's
/// key needs every ancestor's key. Keys it does derive are bit-identical
/// to an unrestricted run's.
Result<PlanLineage> ComputeLineage(
    const Plan& plan, const Dfs& dfs,
    const std::map<std::string, CostKey>* seed = nullptr,
    const std::set<std::string>* restrict_to = nullptr);

/// Content keys of every base-input dataset of `plan` resolvable in `dfs`
/// (exactly what ComputeLineage would derive for them). The reuse-aware
/// search precomputes this once per Optimize call and seeds every
/// candidate-probe lineage with it, so the per-candidate rewrites never
/// re-digest base dataset rows.
std::map<std::string, CostKey> BaseInputContentSeeds(const Plan& plan,
                                                     const Dfs& dfs);

/// The job reuse key of `job` given the lineage keys of its input
/// datasets (and of any split_points_from sample datasets). Returns an
/// error if a required lineage key is missing from `datasets`.
Result<CostKey> JobReuseKey(const JobVertex& job, const Plan& plan,
                            const std::map<std::string, CostKey>& datasets);

/// Hex rendering of a 128-bit key ("0123456789abcdef:..."), used for
/// catalog display and derived dataset-vertex ids.
std::string CostKeyToHex(const CostKey& key);

}  // namespace stubby
