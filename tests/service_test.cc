// stubbyd service tests: the shared-store concurrency surface. The daemon's
// contract is sequential semantics at any thread count — every committed
// request (plan, cost bits, reuse counters, raw outputs) and every byte of
// shared-store state must equal a sequential fresh-session loop over the
// same submission trace — plus deterministic admission control, per-tenant
// budget enforcement, the degradation ladder, and the shared cost cache
// (transparent, and serving later requests).

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/threading.h"
#include "optimizer/transform.h"
#include "profiler/profiler.h"
#include "reuse/session.h"
#include "service/stubbyd.h"
#include "service/trace.h"
#include "workloads/registry.h"

namespace stubby {
namespace {

bool SameCostBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Everything about one committed request that must be bit-identical to the
/// sequential loop and invariant across thread counts.
struct Capture {
  bool ok = false;
  std::string plan_signature;
  double estimated_cost = 0.0;
  double simulated_cost = 0.0;
  std::string reuse_counters;
  std::string degrade;
  std::map<std::string, std::vector<Row>> outputs;
};

Capture CaptureResult(const Status& status, const ReuseSessionResult& r,
                      DegradeLevel degrade) {
  Capture c;
  c.ok = status.ok();
  c.degrade = DegradeLevelName(degrade);
  if (!c.ok) return c;
  c.plan_signature = PlanSignature(r.report.plan);
  c.estimated_cost = r.report.estimated_cost;
  c.simulated_cost = r.simulated_cost;
  c.reuse_counters = r.reuse.ToString();
  c.outputs = r.outputs;
  return c;
}

void ExpectSameCapture(const Capture& got, const Capture& want,
                       const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.degrade, want.degrade);
  if (!got.ok) return;
  EXPECT_EQ(got.plan_signature, want.plan_signature);
  EXPECT_TRUE(SameCostBits(got.estimated_cost, want.estimated_cost))
      << got.estimated_cost << " vs " << want.estimated_cost;
  EXPECT_TRUE(SameCostBits(got.simulated_cost, want.simulated_cost))
      << got.simulated_cost << " vs " << want.simulated_cost;
  EXPECT_EQ(got.reuse_counters, want.reuse_counters);
  ASSERT_EQ(got.outputs.size(), want.outputs.size());
  for (const auto& [id, rows] : got.outputs) {
    ASSERT_EQ(want.outputs.count(id), 1u) << id;
    EXPECT_TRUE(RowsBitIdentical(rows, want.outputs.at(id)))
        << "raw output " << id << " differs";
  }
}

/// The sequential fresh-session oracle: one ReuseSession loop over one
/// shared store, replicating the daemon's degradation ladder and tenant
/// budget enforcement through the same public store API the daemon uses.
struct SequentialOracle {
  explicit SequentialOracle(const ServiceOptions& options)
      : options_(options), store_(options.store) {}

  DegradeLevel LevelNow() const {
    const uint64_t bytes = store_.stored_bytes();
    if (options_.hard_degrade_bytes > 0 &&
        bytes >= options_.hard_degrade_bytes) {
      return DegradeLevel::kBlind;
    }
    if (options_.soft_degrade_bytes > 0 &&
        bytes >= options_.soft_degrade_bytes) {
      return DegradeLevel::kRegisterSkip;
    }
    return DegradeLevel::kFull;
  }

  Capture Run(const Submission& sub) {
    const DegradeLevel level = LevelNow();
    const uint64_t before = store_.next_snapshot_id();
    Result<ReuseSessionResult> r = Status::Unknown("not run");
    if (level == DegradeLevel::kBlind) {
      r = ReuseSession(nullptr).Run(*sub.plan, *sub.dfs, sub.options);
    } else {
      r = ReuseSession(&store_).Run(
          *sub.plan, *sub.dfs, sub.options, nullptr,
          /*register_outputs=*/level == DegradeLevel::kFull);
    }
    for (uint64_t n = before; n < store_.next_snapshot_id(); ++n) {
      owned_[sub.tenant].insert("rs/" + std::to_string(n));
    }
    uint64_t budget = options_.tenant_byte_budget;
    auto bit = options_.tenant_budgets.find(sub.tenant);
    if (bit != options_.tenant_budgets.end()) budget = bit->second;
    auto oit = owned_.find(sub.tenant);
    if (budget > 0 && oit != owned_.end()) {
      tenant_evictions_ += store_.EnforceBudgetOn(oit->second, budget);
    }
    for (auto& [tenant, ids] : owned_) {
      for (auto it = ids.begin(); it != ids.end();) {
        it = store_.HasSnapshot(*it) ? std::next(it) : ids.erase(it);
      }
    }
    return r.ok() ? CaptureResult(Status::OK(), *r, level)
                  : CaptureResult(r.status(), ReuseSessionResult{}, level);
  }

  ServiceOptions options_;
  ResultStore store_;
  std::map<std::string, std::set<std::string>> owned_;
  uint64_t tenant_evictions_ = 0;
};

SubmissionTrace SmallTrace(int universe = 5, int submissions = 20,
                           int tenants = 3) {
  TraceOptions opt;
  opt.universe = universe;
  opt.submissions = submissions;
  opt.tenants = tenants;
  opt.rows = 250;
  opt.zipf = 1.1;
  auto trace = MakeSubmissionTrace(opt);
  EXPECT_TRUE(trace.ok()) << trace.status();
  return std::move(*trace);
}

/// Submits the whole trace and drains; asserts every submission admitted.
std::vector<RequestResult> RunThroughService(StubbyService* service,
                                             const SubmissionTrace& trace) {
  for (const Submission& sub : trace.submissions) {
    auto id = service->Submit(sub);
    EXPECT_TRUE(id.ok()) << id.status();
  }
  return service->Drain();
}

TEST(StubbyServiceTest, DrainMatchesSequentialFreshSessions) {
  const SubmissionTrace trace = SmallTrace();
  ServiceOptions options;
  options.wave_size = 4;
  ThreadPool pool(4);
  StubbyService service(options, &pool);
  std::vector<RequestResult> results = RunThroughService(&service, trace);
  ASSERT_EQ(results.size(), trace.submissions.size());

  SequentialOracle oracle(options);
  for (size_t i = 0; i < results.size(); ++i) {
    Capture want = oracle.Run(trace.submissions[i]);
    Capture got = CaptureResult(results[i].status, results[i].session,
                                results[i].degrade);
    ExpectSameCapture(got, want, "request " + std::to_string(i));
    EXPECT_EQ(results[i].id, i + 1);
    EXPECT_EQ(results[i].tenant, trace.submissions[i].tenant);
  }
  // The shared store ends byte-identical to the sequential loop's store,
  // with no leaked pins, and the catalog genuinely warmed up.
  EXPECT_EQ(service.store().Serialize(), oracle.store_.Serialize());
  EXPECT_EQ(service.store().num_pins(), 0u);
  EXPECT_GT(service.stats().requests_with_hits, 0u);
  EXPECT_EQ(service.stats().completed, trace.submissions.size());
  EXPECT_EQ(service.stats().failed, 0u);
}

TEST(StubbyServiceTest, ThreadCountInvariance) {
  const SubmissionTrace trace = SmallTrace();
  std::map<int, std::vector<Capture>> captures;
  std::map<int, std::string> stats_text;
  std::map<int, std::string> store_text;
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ServiceOptions options;
    options.wave_size = 4;  // fixed: determinism comes from the wave, not
                            // the thread count
    ThreadPool pool(threads);
    StubbyService service(options, &pool);
    std::vector<RequestResult> results = RunThroughService(&service, trace);
    ASSERT_EQ(results.size(), trace.submissions.size());
    for (const RequestResult& r : results) {
      captures[threads].push_back(
          CaptureResult(r.status, r.session, r.degrade));
    }
    stats_text[threads] = service.stats().ToString();
    store_text[threads] = service.store().Serialize();
  }
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_EQ(captures.at(threads).size(), captures.at(1).size());
    for (size_t i = 0; i < captures.at(1).size(); ++i) {
      ExpectSameCapture(captures.at(threads)[i], captures.at(1)[i],
                        "request " + std::to_string(i));
    }
    // Every deterministic service counter — conflicts and reruns
    // included — matches, because waves are a function of the trace.
    EXPECT_EQ(stats_text.at(threads), stats_text.at(1));
    EXPECT_EQ(store_text.at(threads), store_text.at(1));
  }
}

TEST(StubbyServiceTest, ConflictRerunsPreserveSequentialSemantics) {
  // Six copies of ONE workflow in a single wave: every speculation runs
  // against the same cold snapshot, the first commit registers, and every
  // later request's journal fails validation — forcing serial reruns that
  // must land exactly on the sequential outcome (request 0 computes, 1..5
  // elide the whole workflow from the store).
  const SubmissionTrace trace = SmallTrace(/*universe=*/1,
                                           /*submissions=*/6,
                                           /*tenants=*/2);
  ServiceOptions options;
  options.wave_size = 6;
  ThreadPool pool(4);
  StubbyService service(options, &pool);
  std::vector<RequestResult> results = RunThroughService(&service, trace);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_GE(service.stats().conflicts, 1u);

  SequentialOracle oracle(options);
  for (size_t i = 0; i < results.size(); ++i) {
    Capture want = oracle.Run(trace.submissions[i]);
    Capture got = CaptureResult(results[i].status, results[i].session,
                                results[i].degrade);
    ExpectSameCapture(got, want, "request " + std::to_string(i));
    if (i > 0) {
      EXPECT_TRUE(results[i].reran);
      EXPECT_GT(results[i].session.reuse.workflow_hits, 0u);
    }
  }
  EXPECT_EQ(service.store().Serialize(), oracle.store_.Serialize());
}

TEST(StubbyServiceTest, AdmissionRejectionIsDeterministic) {
  const SubmissionTrace trace = SmallTrace(/*universe=*/2, /*submissions=*/8,
                                           /*tenants=*/2);
  ServiceOptions options;
  options.queue_capacity = 3;
  options.wave_size = 2;
  StubbyService service(options, nullptr);
  // Burst past capacity, twice: accept/reject splits and assigned ids are
  // a pure function of the submission sequence.
  for (int round = 0; round < 2; ++round) {
    std::vector<uint64_t> accepted;
    for (const Submission& sub : trace.submissions) {
      auto id = service.Submit(sub);
      if (id.ok()) {
        accepted.push_back(*id);
      } else {
        EXPECT_EQ(id.status().code(), StatusCode::kFailedPrecondition);
      }
    }
    ASSERT_EQ(accepted.size(), 3u);
    const uint64_t base = static_cast<uint64_t>(round) * 3;
    EXPECT_EQ(accepted, (std::vector<uint64_t>{base + 1, base + 2, base + 3}));
    std::vector<RequestResult> results = service.Drain();
    EXPECT_EQ(results.size(), 3u);
  }
  EXPECT_EQ(service.stats().accepted, 6u);
  EXPECT_EQ(service.stats().rejected, 10u);
  EXPECT_EQ(service.stats().completed, 6u);
}

TEST(StubbyServiceTest, PerTenantBudgetsEvictOnlyThatTenant) {
  // Tenant A registers three distinct workflows, tenant B one. First pass:
  // measure A's unbudgeted footprint. Second pass: cap A below it — A must
  // shed snapshots, B's catalog entries must survive and keep serving hits.
  TraceOptions topt;
  topt.universe = 4;
  topt.submissions = 0;
  topt.rows = 250;
  auto built = MakeSubmissionTrace(topt);
  ASSERT_TRUE(built.ok()) << built.status();
  std::vector<Submission> subs;
  for (int i = 0; i < 4; ++i) {
    Submission sub;
    sub.tenant = i < 3 ? "A" : "B";
    sub.name = built->universe[i].name;
    sub.plan = built->universe[i].plan;
    sub.dfs = built->universe[i].dfs;
    subs.push_back(std::move(sub));
  }

  uint64_t unbudgeted_a = 0;
  {
    StubbyService service(ServiceOptions{}, nullptr);
    for (const Submission& sub : subs) ASSERT_TRUE(service.Submit(sub).ok());
    service.Drain();
    unbudgeted_a = service.TenantBytes("A");
    ASSERT_GT(unbudgeted_a, 0u);
    EXPECT_EQ(service.stats().tenant_evictions, 0u);
  }

  ServiceOptions options;
  options.tenant_budgets["A"] = unbudgeted_a / 2;
  StubbyService service(options, nullptr);
  for (const Submission& sub : subs) ASSERT_TRUE(service.Submit(sub).ok());
  service.Drain();
  EXPECT_GT(service.stats().tenant_evictions, 0u);
  EXPECT_LE(service.TenantBytes("A"), unbudgeted_a / 2);
  EXPECT_GT(service.TenantBytes("B"), 0u);
  // B's workflow still elides wholesale from the shared store.
  ASSERT_TRUE(service.Submit(subs[3]).ok());
  std::vector<RequestResult> again = service.Drain();
  ASSERT_EQ(again.size(), 1u);
  ASSERT_TRUE(again[0].status.ok());
  EXPECT_GT(again[0].session.reuse.workflow_hits, 0u);

  // And the whole budgeted replay still matches the sequential loop.
  SequentialOracle oracle(options);
  for (const Submission& sub : subs) oracle.Run(sub);
  oracle.Run(subs[3]);
  EXPECT_EQ(service.store().Serialize(), oracle.store_.Serialize());
  EXPECT_EQ(service.stats().tenant_evictions, oracle.tenant_evictions_);
}

TEST(StubbyServiceTest, DegradationLadder) {
  const SubmissionTrace trace = SmallTrace(/*universe=*/2, /*submissions=*/8,
                                           /*tenants=*/2);
  // Soft threshold of one byte: after the first registration every request
  // still probes and serves hits but deposits nothing — the catalog stops
  // growing while hit service continues.
  {
    ServiceOptions options;
    options.soft_degrade_bytes = 1;
    options.wave_size = 2;
    ThreadPool pool(4);
    StubbyService service(options, &pool);
    std::vector<RequestResult> results = RunThroughService(&service, trace);
    ASSERT_EQ(results.size(), 8u);
    EXPECT_GT(service.stats().degraded_register_skip, 0u);
    EXPECT_EQ(service.stats().degraded_blind, 0u);
    EXPECT_GT(service.stats().requests_with_hits, 0u);
    SequentialOracle oracle(options);
    for (size_t i = 0; i < results.size(); ++i) {
      Capture want = oracle.Run(trace.submissions[i]);
      Capture got = CaptureResult(results[i].status, results[i].session,
                                  results[i].degrade);
      ExpectSameCapture(got, want, "soft request " + std::to_string(i));
    }
    EXPECT_EQ(service.store().Serialize(), oracle.store_.Serialize());
  }
  // Hard threshold of one byte: after the first registration the service
  // goes reuse-blind outright.
  {
    ServiceOptions options;
    options.hard_degrade_bytes = 1;
    options.wave_size = 2;
    ThreadPool pool(4);
    StubbyService service(options, &pool);
    std::vector<RequestResult> results = RunThroughService(&service, trace);
    ASSERT_EQ(results.size(), 8u);
    EXPECT_GT(service.stats().degraded_blind, 0u);
    SequentialOracle oracle(options);
    for (size_t i = 0; i < results.size(); ++i) {
      Capture want = oracle.Run(trace.submissions[i]);
      Capture got = CaptureResult(results[i].status, results[i].session,
                                  results[i].degrade);
      ExpectSameCapture(got, want, "hard request " + std::to_string(i));
    }
    EXPECT_EQ(service.store().Serialize(), oracle.store_.Serialize());
  }
}

TEST(StubbyServiceTest, SharedCostCacheIsTransparent) {
  // The service-wide CostCache is a pure wall-time artifact: throttling it
  // to two entries must not move a single committed bit.
  const SubmissionTrace trace = SmallTrace(/*universe=*/3, /*submissions=*/10,
                                           /*tenants=*/2);
  auto run = [&](CostCache::Options cache) {
    ServiceOptions options;
    options.wave_size = 3;
    options.cost_cache = cache;
    ThreadPool pool(4);
    StubbyService service(options, &pool);
    std::vector<RequestResult> results = RunThroughService(&service, trace);
    std::vector<Capture> captures;
    for (const RequestResult& r : results) {
      captures.push_back(CaptureResult(r.status, r.session, r.degrade));
    }
    return std::make_pair(std::move(captures), service.store().Serialize());
  };
  auto wide = run(CostCache::Options{});
  auto tiny = run(CostCache::Options{2});
  ASSERT_EQ(wide.first.size(), tiny.first.size());
  for (size_t i = 0; i < wide.first.size(); ++i) {
    ExpectSameCapture(tiny.first[i], wide.first[i],
                      "request " + std::to_string(i));
  }
  EXPECT_EQ(wide.second, tiny.second);
}

TEST(StubbyServiceTest, SharedPlanMemoServesARepeatedRequest) {
  // One Table 1 workflow, submitted twice in separate waves. The first
  // request registers its outputs, which pushes the store past the hard
  // threshold, so the second runs reuse-blind: the same search over the
  // same plans. Every estimate it asks for must come from the shared memo
  // the first request's overlay merged into, with the same plan and bits.
  WorkloadOptions wopt;
  wopt.sample_rows = 2000;
  auto workload = MakeWorkload("IR", wopt);
  ASSERT_TRUE(workload.ok()) << workload.status();
  Dfs scratch = workload->dfs;
  ASSERT_TRUE(
      Profiler(wopt.cluster).ProfilePlan(&workload->plan, &scratch).ok());
  Submission sub;
  sub.name = "IR";
  sub.plan = std::make_shared<const Plan>(workload->plan);
  sub.dfs = std::make_shared<const Dfs>(workload->dfs);

  ServiceOptions options;
  options.hard_degrade_bytes = 1;
  options.cost_cache.plan_capacity = size_t{1} << 20;  // never evicts
  ThreadPool pool(4);
  StubbyService service(options, &pool);
  std::vector<RequestResult> done;
  for (int wave = 0; wave < 2; ++wave) {
    ASSERT_TRUE(service.Submit(sub).ok());
    std::vector<RequestResult> results = service.Drain();
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].status.ok()) << results[0].status;
    done.push_back(std::move(results[0]));
  }
  EXPECT_EQ(done[0].degrade, DegradeLevel::kFull);
  EXPECT_EQ(done[1].degrade, DegradeLevel::kBlind);
  EXPECT_EQ(service.cost_cache().plan_evictions(), 0u);

  const OptimizeReport& first = done[0].session.report;
  const OptimizeReport& second = done[1].session.report;
  EXPECT_GT(first.costing.plan_cache_misses, 0u);
  EXPECT_GT(second.costing.plan_cache_hits, 0u);
  EXPECT_EQ(second.costing.plan_cache_misses, 0u);
  EXPECT_EQ(PlanSignature(second.plan), PlanSignature(first.plan));
  EXPECT_TRUE(SameCostBits(second.estimated_cost, first.estimated_cost))
      << second.estimated_cost << " vs " << first.estimated_cost;
}

}  // namespace
}  // namespace stubby
