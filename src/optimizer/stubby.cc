#include "optimizer/stubby.h"

#include <chrono>
#include <set>

#include "common/logging.h"
#include "common/threading.h"
#include "optimizer/bloom.h"
#include "optimizer/horizontal.h"
#include "optimizer/partition_fn.h"
#include "optimizer/vertical.h"
#include "reuse/rewriter.h"

namespace stubby {

CostKey ReuseSaltFromOptions(const StubbyOptions& options) {
  CostDigest d;
  d.Mix(uint64_t{0x5265557353616c74ull});  // "ReUsSalt"
  d.Mix(options.enable_intra_vertical);
  d.Mix(options.enable_inter_vertical);
  d.Mix(options.enable_horizontal);
  d.Mix(options.extended_horizontal);
  d.Mix(options.enable_partition_function);
  d.Mix(options.enable_configuration);
  d.Mix(options.flip_phase_order);
  d.Mix(static_cast<uint64_t>(options.unit.max_subplans));
  d.Mix(static_cast<uint64_t>(options.unit.max_depth));
  d.Mix(options.unit.enable_configuration);
  d.Mix(options.unit.seed);
  d.Mix(static_cast<uint64_t>(options.unit.rrs.budget));
  d.Mix(static_cast<uint64_t>(options.unit.rrs.explore_samples));
  d.Mix(static_cast<uint64_t>(options.unit.rrs.exploit_samples));
  d.Mix(options.unit.rrs.init_radius);
  d.Mix(options.unit.rrs.shrink);
  d.Mix(options.unit.rrs.min_radius);
  return d.value();
}

Result<Plan> StubbyOptimizer::RunPhase(
    Plan plan, const std::vector<std::shared_ptr<Transformation>>& group,
    const WhatIfEngine& whatif, ThreadPool* pool, OptimizeReport* report,
    ReuseSearchState* reuse_state) const {
  UnitSearchOptions unit_options = options_.unit;
  unit_options.enable_configuration = options_.enable_configuration;
  ReuseSearchContext reuse_ctx;
  if (reuse_state != nullptr) {
    reuse_ctx.store = options_.reuse_store;
    reuse_ctx.dfs = options_.reuse_dfs;
    reuse_ctx.seeds = &reuse_state->seeds;
  }
  UnitOptimizer optimizer(group, &whatif, unit_options, pool, reuse_ctx);

  std::set<std::string> processed;
  const size_t max_iterations = plan.num_jobs() * 8 + 8;
  size_t iterations = 0;
  while (auto unit = NextUnit(plan, processed)) {
    if (++iterations > max_iterations) {
      return Status::Internal("unit traversal did not converge");
    }
    STUBBY_ASSIGN_OR_RETURN(UnitResult result,
                            optimizer.Optimize(plan, *unit));
    plan = std::move(result.plan);
    report->units_processed++;
    report->subplans_enumerated += result.subplans_enumerated;
    for (const auto& d : result.applied) report->applied.push_back(d);
    if (reuse_state != nullptr) {
      report->reuse.search_probes += result.reuse.search_probes;
      report->reuse.search_priced += result.reuse.search_priced;
      report->reuse.search_won += result.reuse.search_won;
      if (result.reuse_won) {
        ++reuse_state->won_units;
        reuse_state->stats.whole_job_hits += result.reuse.whole_job_hits;
        reuse_state->stats.prefix_hits += result.reuse.prefix_hits;
        reuse_state->stats.jobs_elided += result.reuse.jobs_elided;
        reuse_state->stats.bytes_saved += result.reuse.bytes_saved;
        // New materialized vertices become lineage seeds for later units.
        for (const auto& [id, key] : result.materialized_lineage) {
          reuse_state->seeds[id] = key;
        }
      }
    }
    // Producers whose id survived are done; producers packed into a new
    // job serve as producers again in a later unit (Figure 9's J4').
    for (const auto& p : unit->producers) {
      if (!result.renames.count(p)) processed.insert(p);
    }
  }
  return plan;
}

Result<OptimizeReport> StubbyOptimizer::Optimize(const Plan& plan) const {
  auto t0 = std::chrono::steady_clock::now();
  STUBBY_RETURN_NOT_OK(plan.Validate());

  WhatIfEngine whatif(plan.cluster());
  OptimizeReport report;
  whatif.set_instrumentation(&report.costing);

  const bool reuse_enabled =
      options_.reuse_store != nullptr && options_.reuse_dfs != nullptr;

  // Tier 1: if every terminal output of the workflow is stored under this
  // option set, skip optimization and execution planning entirely.
  if (reuse_enabled && options_.reuse_whole_workflow) {
    ReuseRewriter rewriter(options_.reuse_store, options_.reuse_dfs);
    STUBBY_ASSIGN_OR_RETURN(
        ReuseRewriteResult elided,
        rewriter.ElideWholeWorkflow(plan, ReuseSaltFromOptions(options_)));
    report.reuse.Add(elided.stats);
    if (elided.changed) {
      CostEstimate cost = whatif.Cost(elided.plan);
      report.plan = std::move(elided.plan);
      report.estimated_cost = cost.cost;
      report.fallback = cost.fallback;
      report.reuse_materialized = true;
      report.reuse_lineage_seeds = std::move(elided.materialized_lineage);
      report.reuse_pinned = std::move(elided.pinned_snapshots);
      report.optimization_time_sec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      return report;
    }
  }
  // Search tasks produce bit-identical results at any thread count, so the
  // pool is a pure wall-time knob.
  ThreadPool* pool = options_.pool;

  std::vector<std::shared_ptr<Transformation>> vertical_group;
  if (options_.enable_intra_vertical) {
    vertical_group.push_back(std::make_shared<IntraJobVerticalPacking>());
  }
  if (options_.enable_inter_vertical) {
    vertical_group.push_back(std::make_shared<InterJobVerticalPacking>());
  }
  if (options_.enable_partition_function) {
    vertical_group.push_back(std::make_shared<PartitionFunctionTransform>());
  }
  if (options_.bloom_transfer) {
    vertical_group.push_back(std::make_shared<BloomTransferTransform>());
  }

  std::vector<std::shared_ptr<Transformation>> horizontal_group;
  if (options_.enable_horizontal) {
    horizontal_group.push_back(
        std::make_shared<HorizontalPacking>(options_.extended_horizontal));
  }
  if (options_.enable_partition_function) {
    horizontal_group.push_back(
        std::make_shared<PartitionFunctionTransform>());
  }
  if (options_.bloom_transfer) {
    horizontal_group.push_back(std::make_shared<BloomTransferTransform>());
  }

  Plan current = plan;
  std::vector<std::vector<std::shared_ptr<Transformation>>> phases;
  std::vector<std::string> phase_names;
  if (options_.flip_phase_order) {
    phases = {horizontal_group, vertical_group};
    phase_names = {"horizontal", "vertical"};
  } else {
    phases = {vertical_group, horizontal_group};
    phase_names = {"vertical", "horizontal"};
  }
  // Reuse-aware search: the unit search prices every candidate's rewritten
  // form too, so the greedy minimum is taken over reuse-aware costs.
  const bool aware_search = reuse_enabled && options_.reuse_aware_search;
  ReuseSearchState reuse_state;
  std::map<std::string, CostKey> base_seeds;
  if (aware_search) {
    base_seeds = BaseInputContentSeeds(plan, *options_.reuse_dfs);
    reuse_state.seeds = base_seeds;
  }
  auto run_phases = [&](Plan p, OptimizeReport* r,
                        ReuseSearchState* rs) -> Result<Plan> {
    bool configuration_pass_done = false;
    for (size_t i = 0; i < phases.size(); ++i) {
      const auto& group = phases[i];
      std::string name = phase_names[i];
      if (group.empty()) {
        // A traversal with no structural transformations is a pure
        // configuration pass. Under a fixed RRS seed it is idempotent, so
        // running it once per empty group would repeat identical work.
        if (!options_.enable_configuration || configuration_pass_done) {
          continue;
        }
        configuration_pass_done = true;
        name = "configuration";
      }
      auto p0 = std::chrono::steady_clock::now();
      const int units_before = r->units_processed;
      const int subplans_before = r->subplans_enumerated;
      STUBBY_ASSIGN_OR_RETURN(
          p, RunPhase(std::move(p), group, whatif, pool, r, rs));
      PhaseReport phase;
      phase.name = std::move(name);
      phase.wall_sec =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - p0)
              .count();
      phase.units_processed = r->units_processed - units_before;
      phase.subplans_enumerated = r->subplans_enumerated - subplans_before;
      r->phases.push_back(std::move(phase));
    }
    return p;
  };
  STUBBY_ASSIGN_OR_RETURN(
      current, run_phases(std::move(current), &report,
                          aware_search ? &reuse_state : nullptr));

  // A run with no structural groups and configuration off executes no
  // phase at all — the aware search never saw the plan, so the post-hoc
  // rewrite must still run.
  const bool search_ran = !report.phases.empty();
  if (reuse_enabled && (!aware_search || !search_ran)) {
    // Tier 2 (post-hoc mode): rewrite stored whole jobs and map-prefixes
    // of the optimized plan into snapshot scans. Re-cost after a rewrite —
    // the what-if engine prices materialized scans from the stored
    // datasets' observed sizes (their annotations), so the reported
    // estimate reflects the savings.
    ReuseRewriter rewriter(options_.reuse_store, options_.reuse_dfs);
    STUBBY_ASSIGN_OR_RETURN(ReuseRewriteResult rewritten,
                            rewriter.Rewrite(current));
    report.reuse.Add(rewritten.stats);
    if (rewritten.changed) {
      current = std::move(rewritten.plan);
      report.reuse_lineage_seeds = std::move(rewritten.materialized_lineage);
      report.reuse_pinned = std::move(rewritten.pinned_snapshots);
    }
  } else if (aware_search && options_.reuse_store->num_entries() > 0) {
    // Post-hoc floor: greedy per-unit reuse choices are path-dependent (an
    // early elision reshapes later units' RRS landscapes), so guarantee
    // the aware plan never prices above the blind-search-plus-rewrite
    // baseline by computing that baseline and keeping the cheaper plan.
    // When no unit chose a rewritten candidate the aware run IS the blind
    // run, so the blind phases need not re-run — but the whole-plan
    // post-hoc probe must still run: per-unit repricing can reject
    // rewrites that cross-unit cost interactions make profitable at the
    // whole-plan level.
    auto f0 = std::chrono::steady_clock::now();
    OptimizeReport floor_report;
    Plan blind;
    if (reuse_state.won_units > 0) {
      STUBBY_ASSIGN_OR_RETURN(blind, run_phases(plan, &floor_report, nullptr));
    } else {
      blind = current;
    }
    ReuseRewriter rewriter(options_.reuse_store, options_.reuse_dfs);
    STUBBY_ASSIGN_OR_RETURN(
        ReuseRewriteResult posthoc,
        rewriter.PlanForScope(blind, /*scope=*/nullptr, &base_seeds));
    report.units_processed += floor_report.units_processed;
    report.subplans_enumerated += floor_report.subplans_enumerated;
    report.reuse.lookups += posthoc.stats.lookups;
    PhaseReport floor_phase;
    floor_phase.name = "reuse-floor";
    floor_phase.wall_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - f0)
            .count();
    floor_phase.units_processed = floor_report.units_processed;
    floor_phase.subplans_enumerated = floor_report.subplans_enumerated;
    report.phases.push_back(std::move(floor_phase));

    const double aware_cost = whatif.Cost(current).cost;
    const double floor_cost =
        whatif.Cost(posthoc.changed ? posthoc.plan : blind).cost;
    if (floor_cost < aware_cost) {
      current = posthoc.changed ? std::move(posthoc.plan) : std::move(blind);
      if (reuse_state.won_units > 0) {
        // The aware plan's transform trail is stale; swap in the blind
        // run's. With no won units, report.applied already IS that trail.
        report.applied = std::move(floor_report.applied);
      }
      report.applied.push_back("reuse: post-hoc rewrite won the floor");
      reuse_state.stats = ReuseStats{};
      reuse_state.stats.whole_job_hits = posthoc.stats.whole_job_hits;
      reuse_state.stats.prefix_hits = posthoc.stats.prefix_hits;
      reuse_state.stats.jobs_elided = posthoc.stats.jobs_elided;
      reuse_state.stats.bytes_saved = posthoc.stats.bytes_saved;
      reuse_state.seeds = std::move(posthoc.materialized_lineage);
    }
  }
  if (aware_search && search_ran) {
    // Commit the chosen plan's hits: bump hit counts and recency for, and
    // pin, every snapshot the plan scans (dataset-id order, so store state
    // evolves deterministically), and fold the winning rewrites' counters
    // into the report. Planning probes never touched the store, so this is
    // the only store mutation of the whole optimization.
    report.reuse.whole_job_hits += reuse_state.stats.whole_job_hits;
    report.reuse.prefix_hits += reuse_state.stats.prefix_hits;
    report.reuse.jobs_elided += reuse_state.stats.jobs_elided;
    report.reuse.bytes_saved += reuse_state.stats.bytes_saved;
    for (const auto& [id, v] : current.datasets()) {
      if (v.materialized_from.empty()) continue;
      auto it = reuse_state.seeds.find(id);
      if (it == reuse_state.seeds.end()) continue;
      const StoredResult* entry = options_.reuse_store->Lookup(it->second);
      if (entry == nullptr) continue;
      options_.reuse_store->Pin(entry->snapshot_id);
      report.reuse_pinned.push_back(entry->snapshot_id);
      report.reuse_lineage_seeds.emplace(id, it->second);
    }
  }

  CostEstimate final_cost = whatif.Cost(current);
  report.plan = std::move(current);
  report.estimated_cost = final_cost.cost;
  report.fallback = final_cost.fallback;
  report.optimization_time_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

}  // namespace stubby
