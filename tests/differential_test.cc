// Differential plan-equivalence harness: seeded random workflows executed
// unoptimized as the oracle, then through every optimizer/reuse mode — the
// reuse-blind search, a cold-store reuse-aware search, a warm-store
// reuse-aware search (twice, so the second run prices store hits inside the
// unit search), the post-hoc rewrite path, the reuse-blind session with
// the columnar batch executor off, the reuse-blind session with
// column-native storage off, the bloom-transfer knob off (`bloom_off`,
// byte-transparent against the blind run) and on (`bloom_on`, the sixth
// transformation enumerates for real on the selective-join seeds; its
// probe pre-filters drop rows yet outputs must still match the oracle —
// the false-positive-only ledger guarantee), the adaptive re-optimizer on
// with accurate profiles (`reopt_on`, must be an exact no-op against the
// blind run), and the adaptive re-optimizer on with deterministically
// perturbed profiles (`reopt_misprofiled`, may emit and splice different
// plans but must still match the oracle) — at 1 and 4 threads. Every emitted plan must produce
// workflow outputs matching the oracle (after a canonical row sort;
// optimized plans may emit rows in a different order), and plans, cost
// bits, and reuse + adaptive counters must not depend on thread count.
// The batch-off and columnar-off legs additionally pin down the
// transparency contracts of StubbyOptions::vectorized_exec and
// ::columnar_storage: raw output order, makespan bits, and per-job
// dataflow accounting match the default run exactly. A final daemon leg
// replays each seed through stubbyd (three tenants, one wave) and asserts
// bit-identity with a sequential fresh-session loop at 1 and 4 threads.
// The nightly TSan leg runs this same file with a larger seed sweep
// (STUBBY_DIFF_SEEDS), so every mode here — the re-opt ones included — is
// exercised under the race detector too.
//
// Seed dimensions: seeds with seed % 3 == 2 generate float-valued data
// (inexact sevenths), where kSum/kAvg become summation-order dependent —
// those seeds compare optimized plans against the oracle with the
// tolerance-aware RowsApproxEqual. All other seeds stay integer-valued
// (sums ≤ 2^53 are exact), where the oracle comparison is bit-level.
// Same-plan A/B legs (batch-off, columnar-off, thread invariance, daemon
// vs sequential) stay bit-level in BOTH modes: identical plans execute in
// identical order, so even float results must agree to the bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/threading.h"
#include "exec/workflow_runner.h"
#include "mr/tuple.h"
#include "optimizer/stubby.h"
#include "optimizer/transform.h"
#include "profiler/perturb.h"
#include "profiler/profiler.h"
#include "reuse/result_store.h"
#include "reuse/session.h"
#include "service/stubbyd.h"
#include "workloads/random.h"

namespace stubby {
namespace {

// --- oracle + comparison helpers -------------------------------------------

using Outputs = std::map<std::string, std::vector<Row>>;

Outputs Canonical(const Outputs& raw) {
  Outputs sorted = raw;
  for (auto& [id, rows] : sorted) std::sort(rows.begin(), rows.end());
  return sorted;
}

/// Oracle equality after the canonical sort: bit-level (doubles by bit
/// pattern) for integer seeds; tolerance-aware (RowsApproxEqual) when
/// `approx` — float seeds aggregate inexact doubles, so equivalent plans
/// agree only up to summation-order rounding.
void ExpectMatchesOracle(const Outputs& got, const Outputs& want,
                         const std::string& label, bool approx) {
  Outputs a = Canonical(got);
  Outputs b = Canonical(want);
  ASSERT_EQ(a.size(), b.size()) << label;
  for (const auto& [id, rows] : a) {
    ASSERT_EQ(b.count(id), 1u) << label << " missing output " << id;
    if (approx) {
      EXPECT_TRUE(RowsApproxEqual(rows, b.at(id)))
          << label << " output " << id << " differs beyond tolerance";
    } else {
      EXPECT_TRUE(RowsBitIdentical(rows, b.at(id)))
          << label << " output " << id << " differs";
    }
  }
}

/// One unoptimized execution: terminal outputs plus the observables the
/// vectorized-exec A/B legs compare (makespan bits, per-job dataflow).
struct OracleRun {
  Outputs outputs;
  double makespan = 0.0;
  std::string dataflow;  ///< JobDataflow::ToString per job, newline-joined
};

/// Runs the plan as written — no optimizer, no reuse — and collects the
/// terminal outputs. This is the oracle every emitted plan must match.
Result<OracleRun> RunUnoptimized(const Plan& plan, const Dfs& dfs,
                                 ExecOptions exec = ExecOptions{}) {
  Dfs run_dfs = dfs;
  WorkflowRunner runner(plan.cluster(), nullptr, exec);
  STUBBY_ASSIGN_OR_RETURN(WorkflowDataflow flow, runner.Run(plan, &run_dfs));
  OracleRun run;
  run.makespan = flow.makespan_sec;
  for (const JobDataflow& j : flow.jobs) run.dataflow += j.ToString() + "\n";
  for (const auto& [id, v] : plan.datasets()) {
    if (!v.is_workflow_output) continue;
    STUBBY_ASSIGN_OR_RETURN(DatasetPtr out, run_dfs.Get(id));
    run.outputs.emplace(id, out->AllRows());
  }
  return run;
}

/// Everything one mode run produced that must be thread-count invariant.
struct ModeResult {
  std::string plan_signature;
  double estimated_cost = 0.0;
  std::string reuse_counters;
  Outputs outputs;
};

ModeResult Capture(const ReuseSessionResult& r) {
  ModeResult m;
  m.plan_signature = PlanSignature(r.report.plan);
  m.estimated_cost = r.report.estimated_cost;
  // Adaptive counters ride along with the reuse counters so the re-opt
  // modes' checks/splices are thread-count invariant too (all zeros for
  // the non-adaptive modes).
  m.reuse_counters = r.reuse.ToString() + "\n" + r.adaptive.ToString();
  m.outputs = r.outputs;
  return m;
}

bool SameCostBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// --- the harness ------------------------------------------------------------

class DifferentialEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialEquivalence, EveryEmittedPlanMatchesTheOracle) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  // Every third seed carries float-valued data; its oracle comparisons are
  // tolerance-aware, everything else stays bit-level.
  const bool floats = (seed % 3 == 2);
  auto f = MakeRandomWorkflow(seed, RandomWorkflowOptions{floats});
  ASSERT_TRUE(f.ok()) << f.status();

  // Odd seeds get full stage profiles: detailed costing and the RRS
  // configuration search run for real. Even seeds stay unprofiled and
  // exercise the job-count fallback path (including its reuse tie rule).
  if (seed % 2 == 1) {
    Profiler profiler(ClusterSpec{});
    Dfs profile_dfs = f->dfs();
    ASSERT_TRUE(profiler.ProfilePlan(&f->plan(), &profile_dfs).ok());
  }

  auto oracle = RunUnoptimized(f->plan(), f->dfs());
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  // Executor-level transparency: the unoptimized plan with the batch
  // executor off, and with batches on but column-native storage off, must
  // reproduce raw outputs, makespan bits, and the per-job dataflow
  // accounting exactly.
  for (const auto& [label, exec] :
       std::initializer_list<std::pair<const char*, ExecOptions>>{
           {"batch-off", ExecOptions{false}},
           {"columnar-off", ExecOptions{true, false}}}) {
    auto oracle_off = RunUnoptimized(f->plan(), f->dfs(), exec);
    ASSERT_TRUE(oracle_off.ok()) << oracle_off.status();
    for (const auto& [id, rows] : oracle->outputs) {
      ASSERT_EQ(oracle_off->outputs.count(id), 1u) << id;
      EXPECT_TRUE(RowsBitIdentical(rows, oracle_off->outputs.at(id)))
          << label << " oracle output " << id << " differs";
    }
    EXPECT_TRUE(SameCostBits(oracle->makespan, oracle_off->makespan))
        << label << ": " << oracle->makespan << " vs "
        << oracle_off->makespan;
    EXPECT_EQ(oracle->dataflow, oracle_off->dataflow) << label;
  }

  // Modes, per thread count: blind, batch-off, columnar-off, cold, warm1,
  // warm2, posthoc, bloom off/on, reopt on, reopt mis-profiled.
  std::map<int, std::vector<ModeResult>> by_threads;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    StubbyOptions opts;

    // Reuse-blind: no store at all.
    ReuseSession blind_session(nullptr);
    auto blind = blind_session.Run(f->plan(), f->dfs(), opts, &pool);
    ASSERT_TRUE(blind.ok()) << blind.status();
    ExpectMatchesOracle(blind->outputs, oracle->outputs, "blind", floats);

    // Batch-off session: the full optimize+execute path with
    // vectorized_exec off must emit the same plan and cost bits as the
    // blind run, and its raw (pre-sort) outputs and simulated makespan
    // must match bit-for-bit.
    StubbyOptions batch_off_opts = opts;
    batch_off_opts.vectorized_exec = false;
    ReuseSession batch_off_session(nullptr);
    auto batch_off =
        batch_off_session.Run(f->plan(), f->dfs(), batch_off_opts, &pool);
    ASSERT_TRUE(batch_off.ok()) << batch_off.status();
    ExpectMatchesOracle(batch_off->outputs, oracle->outputs, "batch_off", floats);
    EXPECT_EQ(PlanSignature(batch_off->report.plan),
              PlanSignature(blind->report.plan));
    EXPECT_TRUE(SameCostBits(batch_off->report.estimated_cost,
                             blind->report.estimated_cost));
    EXPECT_TRUE(
        SameCostBits(batch_off->simulated_cost, blind->simulated_cost))
        << batch_off->simulated_cost << " vs " << blind->simulated_cost;
    ASSERT_EQ(batch_off->outputs.size(), blind->outputs.size());
    for (const auto& [id, rows] : blind->outputs) {
      EXPECT_TRUE(RowsBitIdentical(rows, batch_off->outputs.at(id)))
          << "batch-off raw output " << id << " differs";
    }

    // Columnar-off session: batches stay on but the storage boundary is
    // row-major (the pre-columnar configuration). Same transparency
    // contract as batch_off: plan, cost bits, simulated makespan, and raw
    // (pre-sort) outputs match the default run bit-for-bit.
    StubbyOptions columnar_off_opts = opts;
    columnar_off_opts.columnar_storage = false;
    ReuseSession columnar_off_session(nullptr);
    auto columnar_off = columnar_off_session.Run(f->plan(), f->dfs(),
                                                 columnar_off_opts, &pool);
    ASSERT_TRUE(columnar_off.ok()) << columnar_off.status();
    ExpectMatchesOracle(columnar_off->outputs, oracle->outputs,
                       "columnar_off", floats);
    EXPECT_EQ(PlanSignature(columnar_off->report.plan),
              PlanSignature(blind->report.plan));
    EXPECT_TRUE(SameCostBits(columnar_off->report.estimated_cost,
                             blind->report.estimated_cost));
    EXPECT_TRUE(
        SameCostBits(columnar_off->simulated_cost, blind->simulated_cost))
        << columnar_off->simulated_cost << " vs " << blind->simulated_cost;
    ASSERT_EQ(columnar_off->outputs.size(), blind->outputs.size());
    for (const auto& [id, rows] : blind->outputs) {
      EXPECT_TRUE(RowsBitIdentical(rows, columnar_off->outputs.at(id)))
          << "columnar-off raw output " << id << " differs";
    }

    // Cold store: the aware search probes but every probe misses — the
    // emitted plan and its cost bits must equal the blind search's.
    ResultStore store;
    ReuseSession session(&store);
    auto cold = session.Run(f->plan(), f->dfs(), opts, &pool);
    ASSERT_TRUE(cold.ok()) << cold.status();
    ExpectMatchesOracle(cold->outputs, oracle->outputs, "cold", floats);
    EXPECT_EQ(PlanSignature(cold->report.plan),
              PlanSignature(blind->report.plan));
    EXPECT_TRUE(SameCostBits(cold->report.estimated_cost,
                             blind->report.estimated_cost))
        << cold->report.estimated_cost << " vs "
        << blind->report.estimated_cost;

    // Warm store, whole-workflow elision off: the unit search itself must
    // price and apply the store hits. Run twice — the second run sees the
    // first rewritten run's registrations too.
    StubbyOptions warm_opts = opts;
    warm_opts.reuse_whole_workflow = false;
    auto warm1 = session.Run(f->plan(), f->dfs(), warm_opts, &pool);
    ASSERT_TRUE(warm1.ok()) << warm1.status();
    ExpectMatchesOracle(warm1->outputs, oracle->outputs, "warm1", floats);
    auto warm2 = session.Run(f->plan(), f->dfs(), warm_opts, &pool);
    ASSERT_TRUE(warm2.ok()) << warm2.status();
    ExpectMatchesOracle(warm2->outputs, oracle->outputs, "warm2", floats);

    // Post-hoc path (reuse-aware search off): rewrite only after the blind
    // search — the pre-tentpole behavior, still bit-transparent.
    StubbyOptions posthoc_opts = warm_opts;
    posthoc_opts.reuse_aware_search = false;
    auto posthoc = session.Run(f->plan(), f->dfs(), posthoc_opts, &pool);
    ASSERT_TRUE(posthoc.ok()) << posthoc.status();
    ExpectMatchesOracle(posthoc->outputs, oracle->outputs, "posthoc", floats);

    // Re-optimization transparency (`reopt_on` vs the blind `reopt_off`
    // baseline): with accurate profiles the adaptive runner must be an
    // exact no-op — same plan, cost bits, simulated makespan, and raw
    // (pre-sort) outputs as the blind run, and zero splices.
    StubbyOptions reopt_opts = opts;
    reopt_opts.reoptimize = true;
    ReuseSession reopt_session(nullptr);
    auto reopt_on = reopt_session.Run(f->plan(), f->dfs(), reopt_opts, &pool);
    ASSERT_TRUE(reopt_on.ok()) << reopt_on.status();
    ExpectMatchesOracle(reopt_on->outputs, oracle->outputs, "reopt_on",
                        floats);
    EXPECT_EQ(reopt_on->adaptive.reoptimizations, 0u)
        << "accurate profiles must stay under the re-opt threshold "
        << "(max_rel_error=" << reopt_on->adaptive.max_rel_error << ")";
    EXPECT_EQ(PlanSignature(reopt_on->report.plan),
              PlanSignature(blind->report.plan));
    EXPECT_TRUE(SameCostBits(reopt_on->report.estimated_cost,
                             blind->report.estimated_cost));
    EXPECT_TRUE(
        SameCostBits(reopt_on->simulated_cost, blind->simulated_cost))
        << reopt_on->simulated_cost << " vs " << blind->simulated_cost;
    ASSERT_EQ(reopt_on->outputs.size(), blind->outputs.size());
    for (const auto& [id, rows] : blind->outputs) {
      EXPECT_TRUE(RowsBitIdentical(rows, reopt_on->outputs.at(id)))
          << "reopt-on raw output " << id << " differs";
    }

    // Bloom-transfer A/B. `bloom_off` pins the knob's transparency: the
    // transformation compiled into the build but disabled (the default)
    // must leave plan signature, cost bits, simulated makespan, and raw
    // (pre-sort) outputs bit-identical to the blind run, which never
    // mentions the knob — the knob is salt-excluded, so both searches walk
    // the same path.
    StubbyOptions bloom_off_opts = opts;
    bloom_off_opts.bloom_transfer = false;
    ReuseSession bloom_off_session(nullptr);
    auto bloom_off =
        bloom_off_session.Run(f->plan(), f->dfs(), bloom_off_opts, &pool);
    ASSERT_TRUE(bloom_off.ok()) << bloom_off.status();
    ExpectMatchesOracle(bloom_off->outputs, oracle->outputs, "bloom_off",
                        floats);
    EXPECT_EQ(PlanSignature(bloom_off->report.plan),
              PlanSignature(blind->report.plan));
    EXPECT_TRUE(SameCostBits(bloom_off->report.estimated_cost,
                             blind->report.estimated_cost));
    EXPECT_TRUE(
        SameCostBits(bloom_off->simulated_cost, blind->simulated_cost))
        << bloom_off->simulated_cost << " vs " << blind->simulated_cost;
    ASSERT_EQ(bloom_off->outputs.size(), blind->outputs.size());
    for (const auto& [id, rows] : blind->outputs) {
      EXPECT_TRUE(RowsBitIdentical(rows, bloom_off->outputs.at(id)))
          << "bloom-off raw output " << id << " differs";
    }

    // `bloom_on`: the sixth transformation enumerates for real. On
    // selective-join seeds the emitted plan grows probe pre-filters that
    // drop shuffle rows, but the outputs must still match the unoptimized
    // oracle — a Bloom false positive only passes a row the inner join
    // itself discards. Thread invariance (checked below) covers the
    // deterministic filter build.
    StubbyOptions bloom_on_opts = opts;
    bloom_on_opts.bloom_transfer = true;
    ReuseSession bloom_on_session(nullptr);
    auto bloom_on =
        bloom_on_session.Run(f->plan(), f->dfs(), bloom_on_opts, &pool);
    ASSERT_TRUE(bloom_on.ok()) << bloom_on.status();
    ExpectMatchesOracle(bloom_on->outputs, oracle->outputs, "bloom_on",
                        floats);

    // Mis-profiled (`reopt_misprofiled`): seeded multiplicative skew on
    // every profile-derived annotation (the data itself untouched),
    // adaptive on. The optimizer may pick — and mid-run splice to —
    // different plans, but outputs must still match the unoptimized
    // oracle, and nothing may depend on the thread count.
    Plan perturbed = f->plan();
    PerturbOptions perturb;
    perturb.seed = seed + 101;
    perturb.magnitude = 4.0;
    ASSERT_TRUE(PerturbProfiles(&perturbed, perturb).ok());
    ReuseSession mis_session(nullptr);
    auto mis = mis_session.Run(perturbed, f->dfs(), reopt_opts, &pool);
    ASSERT_TRUE(mis.ok()) << mis.status();
    ExpectMatchesOracle(mis->outputs, oracle->outputs, "reopt_misprofiled",
                        floats);

    by_threads[threads] = {Capture(*blind),     Capture(*batch_off),
                           Capture(*columnar_off),
                           Capture(*cold),      Capture(*warm1),
                           Capture(*warm2),     Capture(*posthoc),
                           Capture(*bloom_off), Capture(*bloom_on),
                           Capture(*reopt_on),  Capture(*mis)};
  }

  // Thread-count invariance: plans, cost bits, reuse counters, and raw
  // (pre-sort) outputs of every mode are identical at 1 and 4 threads.
  const std::vector<ModeResult>& t1 = by_threads.at(1);
  const std::vector<ModeResult>& t4 = by_threads.at(4);
  ASSERT_EQ(t1.size(), t4.size());
  static const char* kModes[] = {"blind",     "batch_off", "columnar_off",
                                 "cold",      "warm1",     "warm2",
                                 "posthoc",   "bloom_off", "bloom_on",
                                 "reopt_on",  "reopt_misprofiled"};
  for (size_t i = 0; i < t1.size(); ++i) {
    SCOPED_TRACE(kModes[i]);
    EXPECT_EQ(t1[i].plan_signature, t4[i].plan_signature);
    EXPECT_TRUE(SameCostBits(t1[i].estimated_cost, t4[i].estimated_cost))
        << t1[i].estimated_cost << " vs " << t4[i].estimated_cost;
    EXPECT_EQ(t1[i].reuse_counters, t4[i].reuse_counters);
    ASSERT_EQ(t1[i].outputs.size(), t4[i].outputs.size());
    for (const auto& [id, rows] : t1[i].outputs) {
      ASSERT_EQ(t4[i].outputs.count(id), 1u);
      EXPECT_TRUE(RowsBitIdentical(rows, t4[i].outputs.at(id)))
          << "output " << id;
    }
  }

  // Daemon mode: the same workflow submitted three times by three tenants
  // through stubbyd — one shared store, one wave, speculative execution —
  // must land exactly where a sequential fresh-session loop does, at 1 and
  // at 4 threads. This replays every generator shape (joins included)
  // through the service's wave-OCC commit path.
  auto shared_plan = std::make_shared<const Plan>(f->plan());
  auto shared_dfs = std::make_shared<const Dfs>(f->dfs());
  std::vector<ModeResult> sequential;
  {
    ResultStore seq_store;
    ReuseSession seq_session(&seq_store);
    for (int i = 0; i < 3; ++i) {
      auto r = seq_session.Run(*shared_plan, *shared_dfs, StubbyOptions{});
      ASSERT_TRUE(r.ok()) << r.status();
      ExpectMatchesOracle(r->outputs, oracle->outputs,
                         "daemon-sequential " + std::to_string(i), floats);
      sequential.push_back(Capture(*r));
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE("daemon threads=" + std::to_string(threads));
      ServiceOptions service_options;
      service_options.wave_size = 3;
      ThreadPool pool(threads);
      StubbyService service(service_options, &pool);
      for (int i = 0; i < 3; ++i) {
        Submission sub;
        sub.tenant = "t" + std::to_string(i);
        sub.name = "seed" + std::to_string(seed);
        sub.plan = shared_plan;
        sub.dfs = shared_dfs;
        ASSERT_TRUE(service.Submit(std::move(sub)).ok());
      }
      std::vector<RequestResult> results = service.Drain();
      ASSERT_EQ(results.size(), 3u);
      for (int i = 0; i < 3; ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        ASSERT_TRUE(results[i].status.ok()) << results[i].status;
        ModeResult got = Capture(results[i].session);
        EXPECT_EQ(got.plan_signature, sequential[i].plan_signature);
        EXPECT_TRUE(SameCostBits(got.estimated_cost,
                                 sequential[i].estimated_cost))
            << got.estimated_cost << " vs " << sequential[i].estimated_cost;
        EXPECT_EQ(got.reuse_counters, sequential[i].reuse_counters);
        ASSERT_EQ(got.outputs.size(), sequential[i].outputs.size());
        for (const auto& [id, rows] : got.outputs) {
          EXPECT_TRUE(
              RowsBitIdentical(rows, sequential[i].outputs.at(id)))
              << "raw output " << id;
        }
      }
      EXPECT_EQ(service.store().Serialize(), seq_store.Serialize());
      EXPECT_EQ(service.store().num_pins(), 0u);
    }
  }
}

/// Seed count, overridable for the nightly-style deep run: the CI `slow`
/// job sets STUBBY_DIFF_SEEDS to sweep a larger slice of the generator
/// space than the default per-commit budget allows.
int SeedCount() {
  const char* env = std::getenv("STUBBY_DIFF_SEEDS");
  if (env == nullptr) return 25;
  const int n = std::atoi(env);
  return n > 0 ? n : 25;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialEquivalence,
                         ::testing::Range(0, SeedCount()));

}  // namespace
}  // namespace stubby
