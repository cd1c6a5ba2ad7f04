// JobRunner: executes one MapReduce job of a plan on the simulated cluster,
// at record level. Map tasks are formed per input group (size-based splits,
// or partition-aligned reads), run every subscribing branch pipeline over
// the scan, partition/sort/combine the map output per branch, and reduce
// tasks merge and run the reduce-side pipelines. Observed dataflow is
// returned in logical units for the phase-time model.
//
// With a thread pool, map and reduce tasks execute concurrently as pure
// tasks whose per-task pieces are merged serially in task order, so
// outputs and every dataflow metric (including floating-point sums) are
// bit-identical to a single-threaded run.
//
// On request a run is also observed: each pipeline counts what its stages
// see and each task hands over its map output's values and group hashes,
// and the same serial merge adds these into one BranchObservation per
// branch — the raw material of profile annotations (profiler/), identical
// at any thread count.

#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "cost/dataflow.h"
#include "dfs/dfs.h"
#include "exec/wrappers.h"
#include "mr/cluster.h"
#include "workflow/plan.h"

namespace stubby {

class ThreadPool;

/// Resolves a branch's effective range split points: explicit ones win;
/// otherwise sorted, de-duplicated candidates from the `split_points_from`
/// dataset are thinned to R-1 evenly spaced distinct boundaries.
Result<PartitionSpec> ResolvePartitionSpec(const Branch& branch, int R,
                                           const Dfs& dfs);

/// Fields perfbench/ prints; neither has an effect.
struct ExecOptions {
  /// No effect; perfbench/ prints it. Delete with the next perfbench/ change.
  bool vectorized = true;
  /// No effect; perfbench/ prints it. Delete with the next perfbench/ change.
  bool columnar = true;
};

/// Sorted (value, count) runs: each distinct value once, ascending, with
/// the number of records that carried it.
template <typename T>
using ValueRuns = std::vector<std::pair<T, uint64_t>>;

/// What an observed run saw of one branch, in physical units. The stage
/// count vectors parallel the branch's stage vectors.
struct BranchObservation {
  struct Input {  ///< one per Branch::inputs entry
    uint64_t records = 0;  ///< rows read
    uint64_t bytes = 0;    ///< serialized bytes read
    std::vector<StageCounts> map_stages;
  };
  std::vector<Input> inputs;
  std::vector<StageCounts> merged_map_stages;
  std::vector<StageCounts> reduce_stages;
  /// Shuffle branches: the map output before any combiner, and the runs of
  /// its K2 group hashes (the run-length encoding of the one sort that also
  /// counts the combine model's groups).
  uint64_t map_output_records = 0;
  uint64_t map_output_bytes = 0;
  ValueRuns<uint64_t> group_runs;
  /// Per map-output field: the runs of its values over the map output (a
  /// map-only branch's output); nullopt for a field that carries a string.
  std::vector<std::optional<ValueRuns<double>>> field_runs;
};

/// Executes single jobs against a Dfs. The pool, when given, is borrowed
/// for the duration of each Run call.
class JobRunner {
 public:
  explicit JobRunner(ClusterSpec cluster, ThreadPool* pool = nullptr)
      : cluster_(std::move(cluster)), pool_(pool) {}

  /// Runs `job`, reading inputs from and writing outputs to `dfs`. The plan
  /// provides dataset schemas and layouts. Returns the observed dataflow.
  /// When `observation` is non-null it is overwritten with what the run
  /// saw of each branch, in JobVertex::branches order; a null one costs the
  /// run only null checks.
  Result<JobDataflow> Run(
      const Plan& plan, const JobVertex& job, Dfs* dfs,
      std::vector<BranchObservation>* observation = nullptr) const;

  /// Upper bound on map tasks materialized per input group (shared with
  /// the what-if engine so predictions match observations).
  static constexpr int kMaxMapTasks = kMaxSimulatedMapTasks;

 private:
  ClusterSpec cluster_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace stubby
