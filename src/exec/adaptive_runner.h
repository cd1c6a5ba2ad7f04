// AdaptiveRunner: WorkflowRunner's execution loop with the Starfish
// profile/what-if feedback loop closed mid-run. After every job finishes it
// compares the observed per-phase dataflow against the what-if prediction
// for that job; when the worst relative error exceeds
// StubbyOptions::reoptimize_threshold and jobs remain, the not-yet-executed
// suffix is rebuilt over the observed data (optimizer/reoptimize.h),
// re-profiled, re-optimized, and spliced in. Executed jobs are never re-run
// — their outputs become annotated base-input scans of the new suffix.
//
// Determinism contract (the repo-wide invariant): plans, executed-job
// order, outputs, dataflow accounting, makespans, and every AdaptiveStats
// counter are bit-identical at any thread count. With accurate profiles the
// error check never fires and the run is an exact no-op relative to
// WorkflowRunner: same ScheduledJob sequence, same makespan bits.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "cost/dataflow.h"
#include "dfs/dfs.h"
#include "exec/job_runner.h"
#include "optimizer/stubby.h"
#include "workflow/plan.h"

namespace stubby {

class ThreadPool;

/// Deterministic counters of one adaptive run (all bit-identical across
/// thread counts; compared verbatim by the invariance tests).
struct AdaptiveStats {
  uint64_t jobs_executed = 0;     ///< total executions (each job runs once)
  uint64_t checks = 0;            ///< observed-vs-predicted comparisons
  uint64_t reoptimizations = 0;   ///< suffix re-plans spliced in
  uint64_t suffix_jobs_replanned = 0;  ///< jobs across all spliced suffixes
  double max_rel_error = 0.0;     ///< worst relative dataflow error seen
  /// Job ids in execution order, across every splice. A job id appearing
  /// twice would mean an executed prefix re-ran — asserted never to happen.
  std::vector<std::string> executed_order;

  std::string ToString() const;
};

/// What one adaptive run produced.
struct AdaptiveRunResult {
  /// Observed dataflow of every executed job (prefix + final suffix, in
  /// execution order) and the simulated makespan of the composite schedule.
  WorkflowDataflow dataflow;
  AdaptiveStats stats;
  /// The plan whose jobs were executing when the run finished (== the input
  /// plan when no re-optimization fired).
  Plan final_plan;
};

/// True when STUBBY_REOPT=1 (or any value but "0") in the environment;
/// `fallback` when unset. The CLI and benches seed
/// StubbyOptions::reoptimize from this.
bool ReoptimizeFromEnv(bool fallback = false);

/// Executes plans end-to-end with optional mid-run suffix re-optimization.
/// `options` supplies the error threshold and the optimizer configuration
/// used for re-plans (reuse pointers are stripped — a mid-run re-plan never
/// touches a ResultStore). The pool is borrowed for job execution and the
/// re-optimization search, bit-identically to a single-threaded run.
class AdaptiveRunner {
 public:
  AdaptiveRunner(ClusterSpec cluster, ThreadPool* pool, StubbyOptions options)
      : cluster_(std::move(cluster)), pool_(pool), options_(options) {}

  /// Validates and runs `plan`. Base inputs must already exist in `dfs`;
  /// intermediate and output datasets are (re)created there.
  Result<AdaptiveRunResult> Run(const Plan& plan, Dfs* dfs) const;

 private:
  ClusterSpec cluster_;
  ThreadPool* pool_ = nullptr;
  StubbyOptions options_;
};

}  // namespace stubby
