// Cross-workflow result-reuse bench: submits a shared session — two
// hand-built map-only workflows (Q2 extends Q1's map pipeline, the ReStore
// sub-job scenario) followed by the eight Table-1 workflows — twice against
// one ResultStore, and compares against recompute-from-scratch.
//
// Checks the subsystem's contract end to end:
//   - every pass's final outputs are bit-identical to the no-store baseline
//     at 1 thread and at --threads threads;
//   - hits/misses/registrations are identical across thread counts;
//   - pass 2 reuses pass 1's work: whole-workflow elisions (even-index
//     submissions), whole-job rewrites (odd-index), and map-prefix reuse,
//     with lower total simulated cost and lower optimize+execute wall time;
//   - with the warm store, the reuse-aware unit search never simulates
//     above the post-hoc rewrite path (reported side by side);
//   - the cold-store first submission costs exactly what the reuse-blind
//     baseline costs.
//
// Flags: --rows N (sample rows, default 8000), --threads N, --passes N
// (default 2), --budget-mb N (store byte budget, 0 = unlimited),
// --policy lru|benefit (eviction policy; with --budget-mb both policies are
// also compared side by side), --store FILE (load the catalog from FILE
// when it exists, save it back after the run — exact Serialize round-trip).
// Writes BENCH_REUSE.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "reuse/session.h"
#include "workloads/builder.h"
#include "workloads/udfs.h"

namespace stubby::bench {
namespace {

constexpr uint64_t kGB = 1ull << 30;

struct Submission {
  std::string name;
  Plan plan;
  Dfs dfs;
};

// Q1 = [filter], Q2 = [filter, project] over identical base content: Q2's
// pipeline extends Q1's, so a session that saw Q1 serves Q2's first stage
// from the store (sub-job reuse) even though no whole job matches.
Result<Submission> MakeMapOnlyQuery(const std::string& tag, int num_stages,
                                    int rows) {
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema s({"K", "V"});
  Rng rng(11);
  std::vector<Row> data;
  for (int i = 0; i < rows; ++i) {
    data.push_back(Row{rng.NextInt(0, 99), rng.NextDouble(0, 10)});
  }
  STUBBY_RETURN_NOT_OK(
      f.AddBase("B" + tag, s, Layout{}, 6, std::move(data), 4 * kGB));
  std::vector<Stage> stages = {
      Stage::Map(FilterRangeMap("keep_mid", s, "V", 2.0, 9.0))};
  Schema out_schema = s;
  if (num_stages > 1) {
    stages.push_back(Stage::Map(ProjectMap("just_k", s, {"K"})));
    out_schema = Schema({"K"});
  }
  STUBBY_RETURN_NOT_OK(
      f.AddDataset("OUT" + tag, out_schema, /*workflow_output=*/true));
  WorkflowFactory::JobDef j;
  j.id = "J" + tag;
  j.inputs = {In("B" + tag, std::move(stages))};
  j.map_output_schema = out_schema;
  j.output = "OUT" + tag;
  STUBBY_RETURN_NOT_OK(f.AddJob(std::move(j)));
  return Submission{"Q" + tag, f.plan(), f.dfs()};
}

Result<std::vector<Submission>> BuildSession(int rows) {
  std::vector<Submission> subs;
  STUBBY_ASSIGN_OR_RETURN(Submission q1, MakeMapOnlyQuery("1", 1, rows));
  STUBBY_ASSIGN_OR_RETURN(Submission q2, MakeMapOnlyQuery("2", 2, rows));
  subs.push_back(std::move(q1));
  subs.push_back(std::move(q2));
  for (const std::string& abbr : AllWorkloadAbbrs()) {
    STUBBY_ASSIGN_OR_RETURN(PreparedWorkload pw, Prepare(abbr, rows));
    subs.push_back(Submission{abbr, std::move(pw.workload.plan),
                              std::move(pw.workload.dfs)});
  }
  return subs;
}

struct PassTotals {
  double simulated_cost = 0.0;
  double optimize_sec = 0.0;
  double execute_sec = 0.0;
  ReuseStats reuse;
};

struct SessionRun {
  std::vector<PassTotals> passes;
  /// outputs[pass][submission][dataset id] -> rows
  std::vector<std::vector<std::map<std::string, std::vector<Row>>>> outputs;
  /// simulated_cost[pass][submission] — the cold-vs-blind equality unit
  std::vector<std::vector<double>> costs;
};

/// How each submission's options are derived.
enum class SessionMode {
  kAlternate,   ///< whole-workflow tier on for even-index submissions
  kSearchOnly,  ///< tier off everywhere: the reuse-aware search does it all
  kPostHoc,     ///< tier off AND aware search off: rewrite-after-search only
};

Result<SessionRun> RunSession(ResultStore* store,
                              const std::vector<Submission>& subs, int passes,
                              ThreadPool* pool,
                              SessionMode mode = SessionMode::kAlternate) {
  SessionRun run;
  ReuseSession session(store);
  for (int p = 0; p < passes; ++p) {
    PassTotals totals;
    run.outputs.emplace_back();
    run.costs.emplace_back();
    for (size_t i = 0; i < subs.size(); ++i) {
      StubbyOptions opts;
      opts.columnar_storage = ColumnarStorageFromEnv();
      // Alternate the whole-workflow tier so one repeated session
      // exercises both full elision and per-job rewriting.
      opts.reuse_whole_workflow =
          mode == SessionMode::kAlternate && (i % 2 == 0);
      opts.reuse_aware_search = mode != SessionMode::kPostHoc;
      STUBBY_ASSIGN_OR_RETURN(
          ReuseSessionResult r,
          session.Run(subs[i].plan, subs[i].dfs, opts, pool));
      totals.simulated_cost += r.simulated_cost;
      totals.optimize_sec += r.optimize_sec;
      totals.execute_sec += r.execute_sec;
      totals.reuse.Add(r.reuse);
      run.outputs.back().push_back(std::move(r.outputs));
      run.costs.back().push_back(r.simulated_cost);
    }
    run.passes.push_back(totals);
  }
  return run;
}

bool OutputsMatch(const std::map<std::string, std::vector<Row>>& a,
                  const std::map<std::string, std::vector<Row>>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [id, rows] : a) {
    auto it = b.find(id);
    if (it == b.end() || !RowsBitIdentical(rows, it->second)) return false;
  }
  return true;
}

Json ReuseJson(const ReuseStats& s) {
  Json j = Json::Object();
  j["lookups"] = s.lookups;
  j["whole_job_hits"] = s.whole_job_hits;
  j["prefix_hits"] = s.prefix_hits;
  j["workflow_hits"] = s.workflow_hits;
  j["jobs_elided"] = s.jobs_elided;
  j["bytes_saved"] = s.bytes_saved;
  j["registered"] = s.registered;
  j["search_probes"] = s.search_probes;
  j["search_priced"] = s.search_priced;
  j["search_won"] = s.search_won;
  return j;
}

Json PassJson(const PassTotals& pt) {
  Json j = Json::Object();
  j["simulated_cost_sec"] = pt.simulated_cost;
  j["optimize_sec"] = pt.optimize_sec;
  j["execute_sec"] = pt.execute_sec;
  j["wall_sec"] = pt.optimize_sec + pt.execute_sec;
  j["reuse"] = ReuseJson(pt.reuse);
  return j;
}

int Main(int argc, char** argv) {
  const int rows = IntFlag(argc, argv, "--rows", 8000);
  const int threads = ThreadsFlag(argc, argv);
  const int passes = std::max(1, IntFlag(argc, argv, "--passes", 2));
  const int budget_mb = IntFlag(argc, argv, "--budget-mb", 0);
  const std::string policy_name = StringFlag(argc, argv, "--policy");
  const std::string store_path = StringFlag(argc, argv, "--store");

  std::printf("bench_reuse: rows=%d threads=%d passes=%d budget_mb=%d\n",
              rows, threads, passes, budget_mb);
  auto subs = BuildSession(rows);
  STUBBY_CHECK_OK(subs.status());

  // --store FILE: resume from a persisted catalog. The file's bytes seed
  // every width identically, so determinism checks still compare
  // like-for-like.
  std::string initial_bytes;
  ResultStore::Options store_opts;
  if (!store_path.empty()) {
    // Only a missing file means "fresh catalog"; an existing-but-unloadable
    // file would be overwritten at save time, so refuse to run instead of
    // silently destroying a possibly recoverable catalog.
    std::FILE* probe = std::fopen(store_path.c_str(), "rb");
    if (probe == nullptr) {
      std::printf("starting a fresh catalog (%s)\n", store_path.c_str());
    } else {
      std::fclose(probe);
      auto loaded = ResultStore::LoadFromFile(store_path);
      if (!loaded.ok()) {
        std::fprintf(stderr,
                     "refusing to overwrite unreadable catalog %s: %s\n",
                     store_path.c_str(),
                     loaded.status().ToString().c_str());
        return 1;
      }
      initial_bytes = loaded->Serialize();
      store_opts = loaded->options();
      std::printf("loaded %zu catalog entr%s from %s\n",
                  loaded->num_entries(),
                  loaded->num_entries() == 1 ? "y" : "ies",
                  store_path.c_str());
    }
  }
  if (budget_mb > 0) {
    store_opts.byte_budget = static_cast<uint64_t>(budget_mb) * (1ull << 20);
  }
  if (!policy_name.empty()) {
    auto policy = EvictionPolicyFromName(policy_name);
    STUBBY_CHECK_OK(policy.status());
    store_opts.policy = *policy;
  }
  auto make_store = [&](ResultStore::Options opts) -> ResultStore {
    if (initial_bytes.empty()) return ResultStore(opts);
    auto restored = ResultStore::Deserialize(initial_bytes);
    STUBBY_CHECK_OK(restored.status());
    restored->set_options(opts);
    return std::move(*restored);
  };

  bool bit_identical = true;
  bool deterministic = true;
  bool cold_matches_blind = true;
  SessionRun reference;  // with-store run at --threads (reported run)
  SessionRun blind;      // no-store baseline at --threads
  std::string warm_bytes;  // reference store after all passes
  struct StoreSummary {
    uint64_t entries = 0, snapshots = 0, stored_bytes = 0, evictions = 0,
             total_hits = 0;
  } summary;

  std::vector<std::string> pass_stats_at_one_thread;
  for (int t : std::vector<int>{1, threads}) {
    ThreadPool pool(t);
    // Recompute baseline: no store, one pass (outputs are pass-invariant).
    auto baseline = RunSession(nullptr, *subs, 1, &pool);
    STUBBY_CHECK_OK(baseline.status());
    // Shared-store session.
    ResultStore store = make_store(store_opts);
    auto with_store = RunSession(&store, *subs, passes, &pool);
    STUBBY_CHECK_OK(with_store.status());

    for (int p = 0; p < passes; ++p) {
      for (size_t i = 0; i < subs->size(); ++i) {
        if (!OutputsMatch(with_store->outputs[p][i],
                          baseline.value().outputs[0][i])) {
          std::fprintf(stderr,
                       "BIT-IDENTITY VIOLATION: %s pass %d threads %d\n",
                       (*subs)[i].name.c_str(), p + 1, t);
          bit_identical = false;
        }
      }
    }
    // Cold-store equivalence: the first submission against an empty store
    // must simulate to the exact cost of the reuse-blind run (every search
    // probe misses, so the emitted plan is the blind plan).
    if (initial_bytes.empty() &&
        with_store->costs[0][0] != baseline->costs[0][0]) {
      std::fprintf(stderr,
                   "COLD != BLIND: %s cost %.17g vs %.17g at %d threads\n",
                   (*subs)[0].name.c_str(), with_store->costs[0][0],
                   baseline->costs[0][0], t);
      cold_matches_blind = false;
    }
    std::vector<std::string> pass_stats;
    for (const PassTotals& pt : with_store->passes) {
      pass_stats.push_back(pt.reuse.ToString());
    }
    if (t == 1) {
      pass_stats_at_one_thread = pass_stats;
    } else if (pass_stats != pass_stats_at_one_thread) {
      std::fprintf(stderr, "NONDETERMINISM: hit sequence differs at %d "
                           "threads\n", t);
      deterministic = false;
    }
    if (t == threads) {
      reference = std::move(*with_store);
      blind = std::move(*baseline);
      warm_bytes = store.Serialize();
      summary = StoreSummary{store.num_entries(), store.num_snapshots(),
                             store.stored_bytes(), store.evictions(),
                             store.total_hits()};
      if (!store_path.empty()) {
        STUBBY_CHECK_OK(store.SaveToFile(store_path));
        std::printf("saved catalog to %s\n", store_path.c_str());
      }
    }
    if (threads == 1) break;  // avoid running the same width twice
  }

  // Warm-store comparison: one extra pass from the same warmed catalog,
  // once through the reuse-aware search and once through the post-hoc
  // rewrite path. The aware search minimizes over reuse-priced candidates
  // (with the post-hoc floor), so it must never simulate above post-hoc.
  PassTotals aware_pass, posthoc_pass;
  bool aware_leq_posthoc = true;
  {
    ThreadPool pool(threads);
    auto aware_store = ResultStore::Deserialize(warm_bytes);
    auto posthoc_store = ResultStore::Deserialize(warm_bytes);
    STUBBY_CHECK_OK(aware_store.status());
    STUBBY_CHECK_OK(posthoc_store.status());
    auto aware = RunSession(&*aware_store, *subs, 1, &pool,
                            SessionMode::kSearchOnly);
    auto posthoc = RunSession(&*posthoc_store, *subs, 1, &pool,
                              SessionMode::kPostHoc);
    STUBBY_CHECK_OK(aware.status());
    STUBBY_CHECK_OK(posthoc.status());
    for (size_t i = 0; i < subs->size(); ++i) {
      if (!OutputsMatch(aware->outputs[0][i], blind.outputs[0][i]) ||
          !OutputsMatch(posthoc->outputs[0][i], blind.outputs[0][i])) {
        std::fprintf(stderr, "BIT-IDENTITY VIOLATION: %s warm comparison\n",
                     (*subs)[i].name.c_str());
        bit_identical = false;
      }
    }
    aware_pass = aware->passes[0];
    posthoc_pass = posthoc->passes[0];
    aware_leq_posthoc =
        aware_pass.simulated_cost <= posthoc_pass.simulated_cost * (1 + 1e-9);
    std::printf("warm store: aware search %9.1fs vs post-hoc %9.1fs  "
                "(aware [%s])\n",
                aware_pass.simulated_cost, posthoc_pass.simulated_cost,
                aware_pass.reuse.ToString().c_str());
  }

  // Eviction-policy comparison: the same budgeted session under LRU and
  // under benefit-weighted eviction, side by side.
  bool compare_policies = budget_mb > 0;
  PassTotals lru_last, benefit_last;
  uint64_t lru_evictions = 0, benefit_evictions = 0;
  uint64_t lru_hits = 0, benefit_hits = 0;
  if (compare_policies) {
    ThreadPool pool(threads);
    for (EvictionPolicy policy :
         {EvictionPolicy::kLru, EvictionPolicy::kBenefitWeighted}) {
      ResultStore::Options opts = store_opts;
      opts.policy = policy;
      ResultStore store = make_store(opts);
      auto run = RunSession(&store, *subs, passes, &pool);
      STUBBY_CHECK_OK(run.status());
      if (policy == EvictionPolicy::kLru) {
        lru_last = run->passes.back();
        lru_evictions = store.evictions();
        lru_hits = store.total_hits();
      } else {
        benefit_last = run->passes.back();
        benefit_evictions = store.evictions();
        benefit_hits = store.total_hits();
      }
    }
    std::printf("eviction: lru %llu eviction(s) %llu hit(s) %9.1fs | "
                "benefit %llu eviction(s) %llu hit(s) %9.1fs\n",
                (unsigned long long)lru_evictions,
                (unsigned long long)lru_hits, lru_last.simulated_cost,
                (unsigned long long)benefit_evictions,
                (unsigned long long)benefit_hits,
                benefit_last.simulated_cost);
  }

  Json doc = Json::Object();
  doc["bench"] = "reuse";
  doc["rows"] = rows;
  doc["threads"] = threads;
  doc["num_passes"] = passes;
  doc["budget_mb"] = budget_mb;
  Json names = Json::Array();
  for (const Submission& s : *subs) names.Append(s.name);
  doc["workflows"] = std::move(names);
  Json pass_array = Json::Array();
  for (int p = 0; p < static_cast<int>(reference.passes.size()); ++p) {
    const PassTotals& pt = reference.passes[p];
    Json j = PassJson(pt);
    j["pass"] = p + 1;
    pass_array.Append(std::move(j));
    std::printf(
        "pass %d: simulated %9.1fs  wall %6.2fs  [%s]\n", p + 1,
        pt.simulated_cost, pt.optimize_sec + pt.execute_sec,
        pt.reuse.ToString().c_str());
  }
  doc["passes"] = std::move(pass_array);
  Json warm = Json::Object();
  warm["aware"] = PassJson(aware_pass);
  warm["posthoc"] = PassJson(posthoc_pass);
  warm["aware_leq_posthoc"] = aware_leq_posthoc;
  doc["warm_comparison"] = std::move(warm);
  doc["cold_matches_blind"] = cold_matches_blind;
  if (compare_policies) {
    Json ev = Json::Object();
    Json lj = PassJson(lru_last);
    lj["evictions"] = lru_evictions;
    lj["total_hits"] = lru_hits;
    Json bj = PassJson(benefit_last);
    bj["evictions"] = benefit_evictions;
    bj["total_hits"] = benefit_hits;
    ev["lru"] = std::move(lj);
    ev["benefit"] = std::move(bj);
    doc["eviction_comparison"] = std::move(ev);
  }
  Json store_json = Json::Object();
  store_json["entries"] = summary.entries;
  store_json["snapshots"] = summary.snapshots;
  store_json["stored_bytes"] = summary.stored_bytes;
  store_json["evictions"] = summary.evictions;
  store_json["total_hits"] = summary.total_hits;
  doc["store"] = std::move(store_json);
  doc["bit_identical"] = bit_identical;
  doc["deterministic_across_threads"] = deterministic;

  bool pass2_cheaper = true;
  if (reference.passes.size() >= 2) {
    const PassTotals& p1 = reference.passes.front();
    const PassTotals& p2 = reference.passes.back();
    // A catalog preloaded via --store already serves pass 1, so "strictly
    // cheaper" degrades to "no more expensive" there.
    pass2_cheaper = initial_bytes.empty()
                        ? p2.simulated_cost < p1.simulated_cost
                        : p2.simulated_cost <=
                              p1.simulated_cost * (1 + 1e-9);
    doc["pass2_cost_ratio"] = p1.simulated_cost > 0
                                  ? p2.simulated_cost / p1.simulated_cost
                                  : 1.0;
    if (p1.simulated_cost > 0) {
      std::printf("pass %zu / pass 1: simulated cost %.2f%%, wall %.2f%%\n",
                  reference.passes.size(),
                  100.0 * p2.simulated_cost / p1.simulated_cost,
                  100.0 * (p2.optimize_sec + p2.execute_sec) /
                      (p1.optimize_sec + p1.execute_sec));
    }
  }
  WriteBenchJson("BENCH_REUSE.json", doc);

  if (!bit_identical || !deterministic) return 1;
  if (!pass2_cheaper) {
    std::fprintf(stderr, "pass 2 was not cheaper than pass 1\n");
    return 1;
  }
  if (!cold_matches_blind) {
    std::fprintf(stderr, "cold-store run did not match the blind run\n");
    return 1;
  }
  if (!aware_leq_posthoc) {
    std::fprintf(stderr, "aware search simulated above the post-hoc path\n");
    return 1;
  }
  std::printf("OK: outputs bit-identical, hits deterministic, "
              "aware <= post-hoc\n");
  return 0;
}

}  // namespace
}  // namespace stubby::bench

int main(int argc, char** argv) { return stubby::bench::Main(argc, argv); }
