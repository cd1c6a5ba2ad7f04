// StubbyOptimizer: the public entry point — a cost-based, transformation-
// based optimizer for annotated MapReduce workflow plans (the paper's
// Section 4 in full). The optimization process is two greedy phases: the
// Vertical group (intra- and inter-job vertical packing, plus partition
// function and configuration transformations) is applied across all
// dynamically generated optimization units in topological order, then the
// Horizontal group (horizontal packing, plus partition function and
// configuration) repeats the traversal. The result is an equivalent plan
// with minimum estimated execution cost subject to the given annotations.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "cost/cost_cache.h"
#include "cost/whatif.h"
#include "optimizer/search.h"
#include "reuse/result_store.h"
#include "workflow/plan.h"

namespace stubby {

/// Optimizer switches — each corresponds to a subspace of the plan space.
struct StubbyOptions {
  bool enable_intra_vertical = true;
  bool enable_inter_vertical = true;
  bool enable_horizontal = true;
  /// Extended horizontal packing (concurrently-runnable jobs with disjoint
  /// inputs), Section 3.3 extensions.
  bool extended_horizontal = true;
  bool enable_partition_function = true;
  bool enable_configuration = true;

  /// Ablation: apply the Horizontal group before the Vertical group
  /// (the paper argues Vertical-first is the right order, Section 4).
  bool flip_phase_order = false;

  /// No effect; perfbench/ prints it. Delete with the next perfbench/ change.
  bool enable_cost_cache = true;

  /// Task parallelism for the in-unit search: subplan candidates and RRS
  /// point blocks run as tasks on this borrowed pool (it must outlive the
  /// Optimize call), with results bit-identical at any thread count.
  /// Null runs the search serially.
  ThreadPool* pool = nullptr;

  UnitSearchOptions unit;

  /// Cross-workflow result reuse (src/reuse/). When `reuse_store` and
  /// `reuse_dfs` are both set, Optimize matches the plan against the store
  /// before and after the transformation phases and rewrites hits into
  /// stored-snapshot scans. Both pointers are borrowed and must outlive the
  /// Optimize call. Reuse is bit-transparent on outputs, so none of these
  /// fields enter the option salt workflow-output keys are registered under.
  ResultStore* reuse_store = nullptr;
  const Dfs* reuse_dfs = nullptr;
  /// Allow the pre-optimization tier that elides the *entire* workflow when
  /// every terminal output is stored under this option set.
  bool reuse_whole_workflow = true;
  /// Reuse-conscious plan selection (MRShare/ReStore §5): fold store probes
  /// into the unit search so every candidate is also priced in its
  /// rewritten form and the search minimizes over reuse-aware costs,
  /// instead of only rewriting the winner in a post-pass. A post-hoc floor
  /// guarantees the chosen plan never prices above what the blind search
  /// plus the tier-2 rewrite would have produced. With a cold store the
  /// probes all miss and the result is bit-identical to the reuse-blind
  /// search. Like the other reuse fields this stays out of the option salt:
  /// reuse is bit-transparent on outputs.
  bool reuse_aware_search = true;
  /// No effect; perfbench/ prints it. Delete with the next perfbench/ change.
  bool reuse_probe_cache = true;
  /// No effect; perfbench/ prints it. Delete with the next perfbench/ change.
  bool vectorized_exec = true;
  /// No effect; perfbench/ prints it. Delete with the next perfbench/ change.
  bool columnar_storage = true;
  /// Adaptive suffix re-optimization (the Starfish profile/what-if loop
  /// closed mid-execution, exec/adaptive_runner.h): after each executed job
  /// the session compares the observed phase dataflow against the what-if
  /// prediction; when the worst relative error exceeds
  /// `reoptimize_threshold`, the not-yet-executed suffix of the workflow is
  /// re-profiled against the actual intermediate data and re-optimized
  /// (executed outputs become annotated base-input scans), and the new
  /// suffix is spliced in. Deterministic and bit-identical at any thread
  /// count; an exact no-op (bit-identical plans/outputs/costs/makespans)
  /// while every error stays below threshold. Final workflow outputs are
  /// bit-identical either way, so both knobs stay out of the option salt.
  /// Env override: STUBBY_REOPT=1 in stubbyctl and benches.
  bool reoptimize = false;
  /// Worst-field relative dataflow error that triggers a suffix re-plan.
  /// Must sit above the what-if engine's natural estimation error with
  /// accurate profiles (Figure 14 territory, well under 0.5 on the Table 1
  /// workloads) and below the damage a genuinely wrong profile causes.
  double reoptimize_threshold = 0.5;
  /// Bloom predicate transfer (optimizer/bloom.h): enumerate, for join jobs
  /// carrying a join annotation, the variant that builds a Bloom filter
  /// over the smaller input's join keys and pre-filters the other inputs'
  /// map output against it before the shuffle. The filter has false
  /// positives but no false negatives, so dropped rows belong only to
  /// groups the inner join discards — terminal outputs are bit-identical
  /// with the transfer on or off, which keeps this knob out of the option
  /// salt (like the other output-transparent knobs above). Default off:
  /// the transform is cost-enumerated alongside the existing groups when
  /// enabled. Env override: STUBBY_BLOOM=1 in stubbyctl and benches.
  bool bloom_transfer = false;
};

/// Digest of the options that shape what an optimized plan computes —
/// transform toggles, phase order, and the unit-search/RRS settings (seed
/// included). Excludes pure wall-time knobs (the pool) and the reuse
/// fields themselves. Workflow-terminal store entries are keyed
/// under this salt: stored bits match a recompute only under equal options.
CostKey ReuseSaltFromOptions(const StubbyOptions& options);

/// Per-phase slice of an optimizer run.
struct PhaseReport {
  std::string name;  ///< "vertical", "horizontal", or "configuration"
  double wall_sec = 0.0;
  int units_processed = 0;
  int subplans_enumerated = 0;
};

/// What the optimizer did, for reporting and the Figure 13 bench.
struct OptimizeReport {
  Plan plan;
  double optimization_time_sec = 0.0;
  double estimated_cost = 0.0;
  bool fallback = false;
  int units_processed = 0;
  int subplans_enumerated = 0;
  std::vector<std::string> applied;  ///< transformation log
  /// Costing-layer counters for the whole run (what-if calls, dataflow
  /// predictions, RRS evaluations).
  CostInstrumentation costing;
  std::vector<PhaseReport> phases;

  /// Result-reuse counters for this run (all zero when no store was given).
  ReuseStats reuse;
  /// True when the whole workflow was elided pre-optimization (the plan has
  /// zero jobs; every terminal output is a materialized snapshot scan).
  bool reuse_materialized = false;
  /// Lineage identity of materialized vertices in `plan` — the session
  /// seeds post-execution ComputeLineage with this so registrations from
  /// rewritten runs stay comparable with recomputed runs.
  std::map<std::string, CostKey> reuse_lineage_seeds;
  /// Snapshots pinned for this plan; the session unpins them after staging.
  std::vector<std::string> reuse_pinned;
};

/// Cost-based transformation-based workflow optimizer.
class StubbyOptimizer {
 public:
  explicit StubbyOptimizer(StubbyOptions options = {})
      : options_(options) {}

  /// Optimizes `plan`; equivalent output plan with minimum estimated cost.
  Result<OptimizeReport> Optimize(const Plan& plan) const;

 private:
  /// Mutable state of the reuse-aware search threaded through the phases:
  /// lineage seeds (base-input content keys plus the identities of
  /// vertices materialized by earlier units, so chained rewrites resolve),
  /// the accumulated hit counters of winning rewritten candidates, and how
  /// many units a rewritten candidate won.
  struct ReuseSearchState {
    std::map<std::string, CostKey> seeds;
    ReuseStats stats;
    uint64_t won_units = 0;
  };

  /// One full traversal of the graph applying a transformation group.
  /// `reuse_state` non-null makes the unit search reuse-aware.
  Result<Plan> RunPhase(
      Plan plan, const std::vector<std::shared_ptr<Transformation>>& group,
      const WhatIfEngine& whatif, ThreadPool* pool, OptimizeReport* report,
      ReuseSearchState* reuse_state) const;

  StubbyOptions options_;
};

}  // namespace stubby
