#include "optimizer/search.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>

#include "common/logging.h"
#include "common/strings.h"
#include "common/threading.h"
#include "cost/cost_cache.h"
#include "optimizer/configuration.h"
#include "reuse/rewriter.h"

namespace stubby {

namespace {

/// Enumeration node: a subplan reached by a sequence of structural
/// transformations.
struct EnumState {
  Plan plan;
  std::map<std::string, std::string> renames;
  std::vector<std::string> applied;
  int depth = 0;
};

/// Maps the unit's original job ids through the renames accumulated so far.
std::vector<std::string> MappedUnitJobs(
    const std::vector<std::string>& original,
    const std::map<std::string, std::string>& renames) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const auto& id : original) {
    auto it = renames.find(id);
    const std::string& mapped = it == renames.end() ? id : it->second;
    if (seen.insert(mapped).second) out.push_back(mapped);
  }
  return out;
}

/// Composes `next` renames on top of `base`.
std::map<std::string, std::string> ComposeRenames(
    const std::map<std::string, std::string>& base,
    const std::map<std::string, std::string>& next) {
  std::map<std::string, std::string> out = base;
  for (auto& [old_id, new_id] : out) {
    auto it = next.find(new_id);
    if (it != next.end()) new_id = it->second;
  }
  for (const auto& [old_id, new_id] : next) {
    if (!out.count(old_id)) out[old_id] = new_id;
  }
  return out;
}

}  // namespace

Result<std::vector<SubplanCandidate>> UnitOptimizer::EnumerateSubplans(
    const Plan& plan, const OptimizationUnit& unit,
    ReuseStats* search_totals) const {
  // Exhaustive BFS over sequences of structural transformations, with
  // signature-based de-duplication.
  std::vector<EnumState> subplans;
  std::set<std::string> seen;
  std::deque<EnumState> queue;
  queue.push_back(EnumState{plan, {}, {}, 0});
  seen.insert(PlanSignature(plan));

  const std::vector<std::string> original_jobs = unit.AllJobs();
  while (!queue.empty() &&
         static_cast<int>(subplans.size()) < options_.max_subplans) {
    EnumState state = std::move(queue.front());
    queue.pop_front();
    std::vector<std::string> scope =
        MappedUnitJobs(original_jobs, state.renames);
    if (state.depth < options_.max_depth) {
      for (const auto& t : transforms_) {
        for (Application& app : t->FindApplications(state.plan, scope)) {
          auto next = app.apply(state.plan);
          if (!next.ok()) continue;  // postconditions not establishable
          std::string sig = PlanSignature(*next);
          if (!seen.insert(sig).second) continue;
          EnumState ns;
          ns.plan = std::move(*next);
          ns.renames = ComposeRenames(state.renames, app.renames);
          ns.applied = state.applied;
          ns.applied.push_back(app.description);
          ns.depth = state.depth + 1;
          queue.push_back(std::move(ns));
        }
      }
    }
    subplans.push_back(std::move(state));
  }
  // Drain any remaining queued states as subplans (cap respected).
  while (!queue.empty() &&
         static_cast<int>(subplans.size()) < options_.max_subplans) {
    subplans.push_back(std::move(queue.front()));
    queue.pop_front();
  }

  // Cost each subplan after an RRS pass over its unit-job configurations.
  // Candidates are independent tasks: each costs through a private engine
  // whose cache is an overlay over the shared store (frozen for the whole
  // batch) and whose instrumentation is a private delta. Overlays and
  // deltas merge serially in candidate order afterwards. The protocol is
  // the same at every thread count, so costs, chosen plans, and counters
  // never depend on how many threads ran the tasks.
  const size_t n = subplans.size();
  std::vector<std::vector<std::string>> scopes(n);
  for (size_t i = 0; i < n; ++i) {
    scopes[i] = MappedUnitJobs(original_jobs, subplans[i].renames);
  }
  CostStore* shared_cache = whatif_->cache();
  CostInstrumentation* shared_stats = whatif_->instrumentation();
  std::vector<std::unique_ptr<CostCacheOverlay>> overlays(n);
  std::vector<CostInstrumentation> deltas(n);
  std::vector<Result<ConfiguredPlan>> configured(
      n, Result<ConfiguredPlan>(Status::Internal("candidate not costed")));
  // Reuse-aware pricing happens inside each candidate's task, against the
  // candidate's *configured* plan: store entries are keyed under the job
  // configurations that actually executed, so probing before the RRS pass
  // would systematically miss tuned jobs. Probes are read-only
  // (PlanForScope never touches hit counts, recency, or pins), and a
  // rewritten form is re-priced through the same per-candidate overlay
  // engine, so the whole path follows the existing merge-in-order
  // determinism protocol unchanged.
  struct ReuseOutcome {
    ReuseStats probe;  ///< this candidate's probe/priced counters
    ReuseStats hits;   ///< the rewrite's hit counters (when it won)
    std::map<std::string, CostKey> materialized_lineage;
    bool rewritten = false;
  };
  std::vector<ReuseOutcome> reuse_outcomes(n);
  ReuseRewriter rewriter(reuse_.store, reuse_.dfs);
  RunTasks(pool_, n, [&](size_t i) {
    WhatIfEngine engine(whatif_->model().cluster());
    if (shared_cache != nullptr) {
      overlays[i] = std::make_unique<CostCacheOverlay>(shared_cache);
      engine.set_cache(overlays[i].get());
    }
    if (shared_stats != nullptr) engine.set_instrumentation(&deltas[i]);
    configured[i] =
        OptimizeConfigurations(&engine, subplans[i].plan, scopes[i]);
    if (!configured[i].ok() || !reuse_.active()) return;

    auto probe =
        rewriter.PlanForScope(configured[i]->plan, &scopes[i], reuse_.seeds);
    if (!probe.ok()) {
      configured[i] = probe.status();
      return;
    }
    reuse_outcomes[i].probe.search_probes += probe->stats.lookups;
    if (!probe->changed) return;
    ++reuse_outcomes[i].probe.search_priced;
    if (shared_stats != nullptr) ++deltas[i].reuse_priced_candidates;
    // Re-tune the surviving jobs on the rewritten landscape (cheap: an
    // all-elided scope has no configuration space left) and keep the
    // rewritten form only when it strictly beats recomputing.
    auto repriced = OptimizeConfigurations(&engine, probe->plan, scopes[i]);
    if (!repriced.ok()) {
      configured[i] = repriced.status();
      return;
    }
    // Under the job-count fallback model both forms of a prefix rewrite
    // price identically (same number of jobs), so a tie there goes to the
    // rewrite: scanning stored bytes can't be worse than recomputing them,
    // the fallback model just can't see it. Detailed-cost ties keep the
    // unrewritten form (closer to the reuse-blind bits).
    const bool fallback_tie = repriced->fallback && configured[i]->fallback &&
                              repriced->cost == configured[i]->cost;
    if (repriced->cost < configured[i]->cost || fallback_tie) {
      reuse_outcomes[i].hits = probe->stats;
      reuse_outcomes[i].materialized_lineage =
          std::move(probe->materialized_lineage);
      reuse_outcomes[i].rewritten = true;
      configured[i] = std::move(repriced);
    }
  });
  Status first_error = Status::OK();
  for (size_t i = 0; i < n; ++i) {
    if (shared_cache != nullptr) overlays[i]->MergeInto(shared_cache);
    if (shared_stats != nullptr) shared_stats->Add(deltas[i]);
    if (search_totals != nullptr) search_totals->Add(reuse_outcomes[i].probe);
    if (first_error.ok() && !configured[i].ok()) {
      first_error = configured[i].status();
    }
  }
  if (!first_error.ok()) return first_error;

  std::vector<SubplanCandidate> out;
  for (size_t i = 0; i < n; ++i) {
    SubplanCandidate cand;
    cand.plan = std::move(configured[i]->plan);
    cand.cost = configured[i]->cost;
    cand.fallback = configured[i]->fallback;
    cand.applied = std::move(subplans[i].applied);
    cand.renames = std::move(subplans[i].renames);
    if (reuse_outcomes[i].rewritten) {
      cand.reuse_rewritten = true;
      cand.reuse = reuse_outcomes[i].hits;
      cand.materialized_lineage =
          std::move(reuse_outcomes[i].materialized_lineage);
      cand.applied.push_back(StrFormat(
          "reuse: %llu whole-job + %llu map-prefix hit(s) priced from store",
          (unsigned long long)cand.reuse.whole_job_hits,
          (unsigned long long)cand.reuse.prefix_hits));
    }
    out.push_back(std::move(cand));
  }
  return out;
}

Result<UnitOptimizer::ConfiguredPlan> UnitOptimizer::OptimizeConfigurations(
    const WhatIfEngine* engine, const Plan& plan,
    const std::vector<std::string>& unit_jobs) const {
  CostEstimate base = engine->Cost(plan);
  if (!options_.enable_configuration || base.fallback) {
    // Without profiles the configuration subspace cannot be costed; the
    // search degrades gracefully to the job-count model (Section 5).
    return ConfiguredPlan{plan, base.cost, base.fallback};
  }

  // Joint configuration space of the unit's (surviving) jobs.
  struct JobSpace {
    const JobVertex* job;
    ConfigSpace space;
    size_t offset;
  };
  std::vector<JobSpace> spaces;
  std::vector<std::string> tuned;
  size_t dims = 0;
  for (const auto& jid : unit_jobs) {
    auto jr = plan.GetJob(jid);
    if (!jr.ok()) continue;
    ConfigSpace space = SpaceForJob(**jr, plan.cluster());
    if (space.size() == 0) continue;
    spaces.push_back(JobSpace{*jr, std::move(space), dims});
    tuned.push_back(jid);
    dims += spaces.back().space.size();
  }
  if (dims == 0) return ConfiguredPlan{plan, base.cost, base.fallback};

  // The effective configuration of each tuned job at `point`. Dimensions a
  // job's space leaves out keep the job's own settings.
  auto configs_at = [&](const std::vector<double>& point) {
    std::vector<JobConfig> configs;
    configs.reserve(spaces.size());
    for (const JobSpace& js : spaces) {
      std::vector<double> slice(
          point.begin() + static_cast<long>(js.offset),
          point.begin() + static_cast<long>(js.offset + js.space.size()));
      configs.push_back(EffectiveConfig(
          *js.job, js.space.PointToConfig(slice, js.job->config)));
    }
    return configs;
  };

  // Every point prices through one pricer compiled for this subplan: it
  // fixes the graph walk and predicts the jobs no tuned job reaches once,
  // and each point re-predicts only the tuned jobs and their downstream
  // jobs, without copying or mutating the plan.
  STUBBY_ASSIGN_OR_RETURN(PlanPricer pricer, engine->Compile(plan, tuned));

  // Batch evaluator for the RRS rounds. Points are split into fixed-size
  // blocks — the block size is a constant, never derived from the thread
  // count, because block boundaries decide which memo entries each point
  // can see and therefore shape the instrumentation counters. Each block
  // is an independent task with its own overlay over the engine's store
  // and its own instrumentation delta; blocks share the read-only pricer
  // and merge serially in block order.
  constexpr size_t kBlock = 4;
  CostStore* parent_cache = engine->cache();
  CostInstrumentation* parent_stats = engine->instrumentation();
  auto batch_eval =
      [&](const std::vector<std::vector<double>>& points) -> std::vector<double> {
    const size_t blocks = (points.size() + kBlock - 1) / kBlock;
    std::vector<std::unique_ptr<CostCacheOverlay>> overlays(blocks);
    std::vector<CostInstrumentation> deltas(blocks);
    std::vector<double> values(points.size());
    RunTasks(pool_, blocks, [&](size_t b) {
      WhatIfEngine block_engine(engine->model().cluster());
      if (parent_cache != nullptr) {
        overlays[b] = std::make_unique<CostCacheOverlay>(parent_cache);
        block_engine.set_cache(overlays[b].get());
      }
      if (parent_stats != nullptr) {
        block_engine.set_instrumentation(&deltas[b]);
      }
      const size_t begin = b * kBlock;
      const size_t end = std::min(points.size(), begin + kBlock);
      for (size_t p = begin; p < end; ++p) {
        if (parent_stats != nullptr) ++deltas[b].rrs_evaluations;
        values[p] = block_engine.Cost(pricer, configs_at(points[p])).cost;
      }
    });
    for (size_t b = 0; b < blocks; ++b) {
      if (parent_cache != nullptr) overlays[b]->MergeInto(parent_cache);
      if (parent_stats != nullptr) parent_stats->Add(deltas[b]);
    }
    return values;
  };

  // Seeds: the current configurations and the rule-of-thumb settings.
  std::vector<double> current_seed;
  std::vector<double> thumb_seed;
  for (const JobSpace& js : spaces) {
    std::vector<double> cur = js.space.ConfigToPoint(js.job->config);
    std::vector<double> thumb = js.space.ConfigToPoint(
        RuleOfThumbConfig(*js.job, plan.cluster(), &plan));
    current_seed.insert(current_seed.end(), cur.begin(), cur.end());
    thumb_seed.insert(thumb_seed.end(), thumb.begin(), thumb.end());
  }

  RecursiveRandomSearch rrs(options_.rrs, options_.seed);
  auto [best_point, best_value] =
      rrs.MinimizeBatches(dims, batch_eval, {current_seed, thumb_seed});
  if (!std::isfinite(best_value) || best_value >= base.cost) {
    return ConfiguredPlan{plan, base.cost, base.fallback};
  }
  Plan best_plan = plan;
  const std::vector<JobConfig> best_configs = configs_at(best_point);
  for (size_t i = 0; i < spaces.size(); ++i) {
    STUBBY_RETURN_NOT_OK(
        ApplyConfiguration(&best_plan, tuned[i], best_configs[i]));
  }
  // base was costable (no fallback), and configuration changes never remove
  // the annotations that made it so.
  return ConfiguredPlan{std::move(best_plan), best_value, false};
}

Result<UnitResult> UnitOptimizer::Optimize(const Plan& plan,
                                           const OptimizationUnit& unit) const {
  ReuseStats search_totals;
  STUBBY_ASSIGN_OR_RETURN(std::vector<SubplanCandidate> candidates,
                          EnumerateSubplans(plan, unit, &search_totals));
  if (candidates.empty()) {
    return Status::Internal("unit enumeration produced no subplans");
  }
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].cost < candidates[best].cost) best = i;
  }
  UnitResult result;
  result.plan = std::move(candidates[best].plan);
  result.cost = candidates[best].cost;
  result.fallback = candidates[best].fallback;
  result.renames = std::move(candidates[best].renames);
  result.applied = std::move(candidates[best].applied);
  result.subplans_enumerated = static_cast<int>(candidates.size());
  result.reuse = search_totals;
  if (candidates[best].reuse_rewritten) {
    result.reuse_won = true;
    ++result.reuse.search_won;
    result.reuse.whole_job_hits += candidates[best].reuse.whole_job_hits;
    result.reuse.prefix_hits += candidates[best].reuse.prefix_hits;
    result.reuse.jobs_elided += candidates[best].reuse.jobs_elided;
    result.reuse.bytes_saved += candidates[best].reuse.bytes_saved;
    result.materialized_lineage =
        std::move(candidates[best].materialized_lineage);
  }
  return result;
}

}  // namespace stubby
