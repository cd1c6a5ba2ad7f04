// ReuseRewriter: the plan pass that turns ResultStore hits into rewrites
// (ReStore's plan matcher, PVLDB 2012). Two tiers:
//
//   ElideWholeWorkflow — before optimization: if every terminal output of
//   the workflow is stored under its optimizer-salted lineage key, the
//   whole plan collapses to zero jobs whose outputs are staged snapshots.
//   Salting with the optimizer options keeps the tier transparent: the
//   stored bits are exactly what optimizing + executing would produce.
//
//   Rewrite — after optimization: (a) whole-job reuse — a job whose every
//   output is stored is removed and its outputs become materialized base
//   inputs; (b) sub-job reuse — the longest stored stateless map-prefix of
//   a branch input is replaced by a scan of the stored stream. Dead jobs
//   whose outputs nobody consumes anymore are then eliminated.
//
// When nothing matches, the returned plan is bit-identical to the input —
// the pass is a no-op, not a normalization.

#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "reuse/result_store.h"
#include "reuse/signature.h"
#include "workflow/plan.h"

namespace stubby {

/// Outcome of a rewrite pass.
struct ReuseRewriteResult {
  Plan plan;
  ReuseStats stats;
  bool changed = false;

  /// Lineage identity of every materialized vertex in `plan` (vertex id ->
  /// the store key it was served from). The session seeds ComputeLineage
  /// with this map so post-execution registrations of the rewritten plan
  /// stay comparable with recomputed runs.
  std::map<std::string, CostKey> materialized_lineage;

  /// Snapshots the rewritten plan scans, pinned against eviction until the
  /// session unpins them after staging + execution.
  std::vector<std::string> pinned_snapshots;
};

/// Matches a plan against a ResultStore and rewrites hits into scans.
class ReuseRewriter {
 public:
  /// `dfs` supplies base-input contents for lineage keys; both pointers
  /// must outlive the rewriter.
  ReuseRewriter(ResultStore* store, const Dfs* dfs)
      : store_(store), dfs_(dfs) {}

  /// All-or-nothing terminal elision (tier 1). `changed` is true only when
  /// *every* workflow output hit; the result plan then has zero jobs.
  Result<ReuseRewriteResult> ElideWholeWorkflow(const Plan& plan,
                                                const CostKey& options_salt);

  /// Whole-job + map-prefix rewriting (tier 2), then dead-code cleanup.
  /// Commits hits to the store: Lookup bumps hit counts and recency, and
  /// the snapshots the rewritten plan scans are pinned.
  Result<ReuseRewriteResult> Rewrite(const Plan& plan);

  /// Planning-mode variant for the reuse-aware unit search: the same
  /// whole-job + map-prefix matching and cleanup, but read-only — probes
  /// use Peek (no hit counts, no recency, no pins), so candidate
  /// enumeration never mutates store state and stays bit-deterministic at
  /// any thread count. `scope` restricts matching to those job ids
  /// (nullptr = every job); cleanup still runs plan-wide. `seeds`
  /// pre-resolves lineage keys — the search passes base-input content keys
  /// plus the keys of vertices materialized by earlier units, so chained
  /// rewrites across units resolve without the vertices existing in the
  /// dfs. The caller commits the winning plan's hits afterwards.
  Result<ReuseRewriteResult> PlanForScope(
      const Plan& plan, const std::vector<std::string>* scope,
      const std::map<std::string, CostKey>* seeds) const;

 private:
  /// Shared tier-2 implementation behind Rewrite (commit = true) and
  /// PlanForScope (commit = false).
  Result<ReuseRewriteResult> RewriteImpl(
      const Plan& plan, const std::set<std::string>* scope,
      const std::map<std::string, CostKey>* seeds, bool commit) const;

  /// Rewires one dataset vertex to be served from a stored snapshot.
  Status MaterializeVertex(Plan* plan, const std::string& dataset_id,
                           const StoredResult& entry) const;

  ResultStore* store_;
  const Dfs* dfs_;
};

}  // namespace stubby
