// Search within an optimization unit (Section 4.2): Stubby exhaustively
// applies all combinations of the (structural) transformations in the
// active group to generate the unit's subplans p1..pn, invokes RRS on each
// subplan to find its best job configurations and estimated cost, and
// retains the subplan with the overall lowest cost.

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "cost/whatif.h"
#include "optimizer/rrs.h"
#include "optimizer/transform.h"
#include "optimizer/unit.h"
#include "reuse/result_store.h"

namespace stubby {

class ThreadPool;

/// Store context for reuse-aware candidate pricing. When `store` and `dfs`
/// are both set, the unit search matches every configured candidate
/// against the catalog (read-only Peek probes — store state never changes
/// during a search) and additionally prices the candidate's rewritten
/// form through the same engine, so the unit minimum is taken over
/// reuse-aware costs instead of reuse-blind ones. `seeds` pre-resolves
/// lineage keys — base-input content keys plus the identities of vertices
/// materialized by earlier units — so probes never re-digest base rows and
/// chained rewrites across units resolve.
struct ReuseSearchContext {
  ResultStore* store = nullptr;
  const Dfs* dfs = nullptr;
  const std::map<std::string, CostKey>* seeds = nullptr;

  bool active() const { return store != nullptr && dfs != nullptr; }
};

/// Knobs of the in-unit search.
struct UnitSearchOptions {
  /// Caps on the exhaustive structural enumeration (defensive; real units
  /// yield a handful of subplans, cf. Figure 10).
  int max_subplans = 64;
  int max_depth = 6;

  /// Configuration-search settings.
  bool enable_configuration = true;
  RrsOptions rrs;
  uint64_t seed = 17;
};

/// Outcome of optimizing one unit.
struct UnitResult {
  Plan plan;
  double cost = 0.0;
  bool fallback = false;  ///< costed with the job-count fallback model
  /// Composed job-id renames caused by the chosen subplan's packing.
  std::map<std::string, std::string> renames;
  /// Structural transformations applied in the chosen subplan.
  std::vector<std::string> applied;
  int subplans_enumerated = 0;

  /// Reuse-aware search outcome: probe/priced totals over all candidates,
  /// plus the winner's hit counters when a rewritten candidate won.
  ReuseStats reuse;
  bool reuse_won = false;
  /// Lineage identity (vertex id -> store key) of vertices the winning
  /// candidate materialized; empty unless `reuse_won`.
  std::map<std::string, CostKey> materialized_lineage;
};

/// One enumerated subplan with its best configuration and cost (exposed for
/// the Figure 10 / Figure 14 style drill-downs).
struct SubplanCandidate {
  Plan plan;
  double cost = 0.0;
  bool fallback = false;  ///< costed with the job-count fallback model
  std::vector<std::string> applied;
  std::map<std::string, std::string> renames;

  /// True when this candidate is the store-rewritten form of its subplan
  /// (it priced cheaper than recomputing); `reuse` then carries the
  /// planning-rewrite counters and `materialized_lineage` the identities
  /// of the snapshot scans the plan gained.
  bool reuse_rewritten = false;
  ReuseStats reuse;
  std::map<std::string, CostKey> materialized_lineage;
};

/// Enumerates and costs a unit's subplan space.
///
/// With a pool, subplan candidates are costed as parallel tasks, and each
/// RRS round's points in parallel blocks. Every task prices through a
/// private engine and writes only its own outputs: its estimates and a
/// private instrumentation delta, which add up in task order once the
/// batch completes. No task reads what another wrote, so plans, costs, RRS
/// trajectories, and instrumentation counters are bit-identical no matter
/// how many threads execute the tasks.
class UnitOptimizer {
 public:
  UnitOptimizer(std::vector<std::shared_ptr<Transformation>> transforms,
                const WhatIfEngine* whatif, UnitSearchOptions options,
                ThreadPool* pool = nullptr, ReuseSearchContext reuse = {})
      : transforms_(std::move(transforms)),
        whatif_(whatif),
        options_(options),
        pool_(pool),
        reuse_(reuse) {}

  /// Optimizes `unit` within `plan`; returns the plan with the best subplan
  /// and configurations applied.
  Result<UnitResult> Optimize(const Plan& plan,
                              const OptimizationUnit& unit) const;

  /// Enumerates all subplans of the unit with their RRS-optimized costs
  /// (most expensive entry point; used by benches and deep-dive examples).
  /// With an active reuse context, each candidate is additionally matched
  /// against the store after configuration and replaced by its rewritten
  /// form when that prices cheaper; `search_totals` (optional) accumulates
  /// the probe/priced counters across all candidates.
  Result<std::vector<SubplanCandidate>> EnumerateSubplans(
      const Plan& plan, const OptimizationUnit& unit,
      ReuseStats* search_totals = nullptr) const;

 private:
  /// Outcome of the configuration pass over one subplan.
  struct ConfiguredPlan {
    Plan plan;
    double cost = 0.0;
    bool fallback = false;
  };

  /// RRS over the configurations of the unit's jobs in `plan`; returns the
  /// plan with the best configurations applied, its cost, and whether that
  /// cost came from the fallback model. `engine` is the candidate-private
  /// engine to cost through (its instrumentation may be a task delta).
  Result<ConfiguredPlan> OptimizeConfigurations(
      const WhatIfEngine* engine, const Plan& plan,
      const std::vector<std::string>& unit_jobs) const;

  std::vector<std::shared_ptr<Transformation>> transforms_;
  const WhatIfEngine* whatif_;
  UnitSearchOptions options_;
  ThreadPool* pool_ = nullptr;
  ReuseSearchContext reuse_;
};

}  // namespace stubby
