// stubbyd-zipf: a Zipf-skewed, multi-tenant submission trace replayed
// through StubbyService::Submit / Drain against a cold, byte-budgeted store,
// as a closed loop with wave_size submissions outstanding.
//
// The universe is the src/service/trace workflows plus the eight Table 1
// workflows (profiled in setup at small rows). Each trace workflow is
// submitted a fixed number of times, proportional to its Zipf weight, in a
// seeded random order; half of each entry's submissions come from tenants
// that disable the whole-workflow reuse tier, so their repeats go through the
// reuse-aware unit search. Each Table 1 workflow is submitted once, a cold
// miss with a full optimization. Every request's outputs are checked bit for
// bit against a store-free recompute of its entry made in setup.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/pig_baseline.h"
#include "common/rng.h"
#include "exec/workflow_runner.h"
#include "profiler/profiler.h"
#include "reuse/session.h"
#include "service/stubbyd.h"
#include "service/trace.h"
#include "workloads.h"
#include "workloads/registry.h"

namespace perfbench {

using stubby::Dfs;
using stubby::Plan;
using stubby::RequestResult;
using stubby::ResultStore;
using stubby::ReuseSession;
using stubby::ReuseSessionResult;
using stubby::ReuseStats;
using stubby::Result;
using stubby::Row;
using stubby::Status;
using stubby::StubbyOptions;
using stubby::StubbyService;
using stubby::Submission;
using stubby::ThreadPool;

namespace {

/// Trace universe: this many src/service/trace workflows ...
constexpr int kTraceWorkflows = 32;
/// ... with this many base rows each (plus per-entry jitter) ...
constexpr int kTraceRows = 500;
/// ... and the eight Table 1 workflows at this many sample rows.
constexpr int kTable1Rows = 2000;
/// Submissions per replay, and the shortened (self-check) count.
constexpr int kSubmissions = 1000;
constexpr int kShortenedSubmissions = 200;
/// Zipf skew of entry popularity.
constexpr double kZipfSkew = 1.1;
constexpr int kTenants = 6;
/// Shared-store byte budget: below the trace's footprint, so the store
/// evicts while the trace replays.
constexpr uint64_t kStoreByteBudget = 384 << 10;
constexpr int kSetupRepeats = 3;

using Outputs = std::map<std::string, std::vector<Row>>;

/// One distinct workflow of the universe.
struct Entry {
  std::string name;
  std::shared_ptr<const Plan> plan;
  std::shared_ptr<const Dfs> dfs;
  Outputs recompute;  ///< store-free outputs, the oracle
  bool table1 = false;
  double pig_makespan = 0;
  double stubby_makespan = 0;
  double profile_s = 0;
  double optimize_s = 0;
};

struct Trace {
  std::vector<Entry> universe;
  std::vector<Submission> submissions;
  std::vector<size_t> entry_of;  ///< universe index of each submission
};

bool SameOutputs(const Outputs& a, const Outputs& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [id, rows] : a) {
    auto it = b.find(id);
    if (it == b.end() || !stubby::RowsBitIdentical(rows, it->second)) {
      return false;
    }
  }
  return true;
}

Result<Entry> Table1Entry(const std::string& abbr, uint64_t seed,
                          ThreadPool* pool) {
  stubby::WorkloadOptions options;
  options.sample_rows = kTable1Rows;
  options.seed = seed;
  STUBBY_ASSIGN_OR_RETURN(stubby::Workload w,
                          stubby::MakeWorkload(abbr, options));
  Entry e;
  e.name = abbr;
  e.table1 = true;
  {
    Dfs profiling_dfs = w.dfs;
    Span span("profiler.ProfilePlan", "setup/" + abbr);
    STUBBY_RETURN_NOT_OK(
        stubby::Profiler(options.cluster).ProfilePlan(&w.plan, &profiling_dfs));
    e.profile_s = span.Stop();
  }
  STUBBY_ASSIGN_OR_RETURN(Plan pig, stubby::PigBaseline(w.plan));
  Dfs dfs = w.dfs;
  Span span("exec.WorkflowRunner.Run", "setup/" + abbr + "/pig");
  STUBBY_ASSIGN_OR_RETURN(
      stubby::WorkflowDataflow flow,
      stubby::WorkflowRunner(options.cluster, pool).Run(pig, &dfs));
  span.Stop();
  e.pig_makespan = flow.makespan_sec;
  e.plan = std::make_shared<const Plan>(std::move(w.plan));
  e.dfs = std::make_shared<const Dfs>(std::move(w.dfs));
  return e;
}

/// Submission counts proportional to rank^-skew (largest remainder), so
/// every seed replays the same mix; the seed only orders it.
std::vector<int> ZipfCounts(size_t universe, int submissions) {
  std::vector<double> weight(universe);
  double total = 0;
  for (size_t r = 0; r < universe; ++r) {
    weight[r] = std::pow(static_cast<double>(r + 1), -kZipfSkew);
    total += weight[r];
  }
  std::vector<int> counts(universe);
  std::vector<std::pair<double, size_t>> remainders;
  int assigned = 0;
  for (size_t r = 0; r < universe; ++r) {
    const double exact = submissions * weight[r] / total;
    counts[r] = static_cast<int>(exact);
    assigned += counts[r];
    remainders.push_back({counts[r] - exact, r});
  }
  std::sort(remainders.begin(), remainders.end());
  for (size_t i = 0; assigned < submissions; ++i, ++assigned) {
    ++counts[remainders[i % universe].second];
  }
  return counts;
}

/// Builds the universe, the store-free oracle and the submission order.
Result<Trace> BuildTrace(const RunConfig& cfg, ThreadPool* pool) {
  Trace trace;
  stubby::TraceOptions topt;
  topt.seed = cfg.seed;
  topt.rows = kTraceRows;
  // Universe: the trace workflows (index = Zipf rank - 1), then Table 1.
  for (int i = 0; i < kTraceWorkflows; ++i) {
    STUBBY_ASSIGN_OR_RETURN(stubby::TraceWorkflow w,
                            stubby::MakeTraceWorkflow(i, topt));
    Entry e;
    e.name = w.name;
    e.plan = w.plan;
    e.dfs = w.dfs;
    trace.universe.push_back(std::move(e));
  }
  const std::vector<std::string> abbrs = stubby::AllWorkloadAbbrs();
  for (const std::string& abbr : abbrs) {
    STUBBY_ASSIGN_OR_RETURN(Entry e, Table1Entry(abbr, cfg.seed, pool));
    trace.universe.push_back(std::move(e));
  }

  for (Entry& e : trace.universe) {
    StubbyOptions opts;
    Span span("reuse.ReuseSession.Run", "setup/recompute/" + e.name);
    STUBBY_ASSIGN_OR_RETURN(ReuseSessionResult r,
                            ReuseSession(nullptr).Run(*e.plan, *e.dfs, opts,
                                                      pool));
    span.Stop();
    e.recompute = std::move(r.outputs);
    e.stubby_makespan = r.simulated_cost;
    e.optimize_s = r.optimize_sec;
  }

  // The trace workflows draw the Zipf mix in a seeded order. Each Table 1
  // workflow is submitted once, alone in its wave, at evenly spaced
  // wave-aligned slots: a cold miss with a full optimization.
  const int submissions =
      cfg.shortened ? kShortenedSubmissions : kSubmissions;
  const std::vector<int> counts = ZipfCounts(
      kTraceWorkflows, submissions - static_cast<int>(abbrs.size()));
  std::vector<std::pair<size_t, int>> shuffled;  // (entry, occurrence)
  for (size_t i = 0; i < counts.size(); ++i) {
    for (int k = 0; k < counts[i]; ++k) shuffled.push_back({i, k});
  }
  stubby::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 17);
  rng.Shuffle(&shuffled);
  // Table 1 workflow t opens wave (2t + 1) * waves / 16.
  const size_t wave = stubby::ServiceOptions{}.wave_size;
  const size_t waves = static_cast<size_t>(submissions) / wave;
  std::map<size_t, size_t> table1_at;  // position -> universe index
  for (size_t t = 0; t < abbrs.size(); ++t) {
    table1_at[wave * ((2 * t + 1) * waves / (2 * abbrs.size()))] =
        kTraceWorkflows + t;
  }
  std::vector<std::pair<size_t, int>> order;
  for (auto it = shuffled.begin(); order.size() < shuffled.size() +
                                                     abbrs.size();) {
    auto slot = table1_at.find(order.size());
    if (slot != table1_at.end()) {
      order.push_back({slot->second, 0});
    } else {
      order.push_back(*it++);
    }
  }
  for (const auto& [i, k] : order) {
    const Entry& e = trace.universe[i];
    // Alternate tenants per occurrence: half of every entry's submissions
    // come from even tenants (whole-workflow tier on), half from odd ones.
    const int tenant = static_cast<int>((k + i) % kTenants);
    Submission sub;
    sub.tenant = "t" + std::to_string(tenant);
    sub.name = e.name;
    sub.plan = e.plan;
    sub.dfs = e.dfs;
    sub.options.reuse_whole_workflow = tenant % 2 == 0;
    trace.submissions.push_back(std::move(sub));
    trace.entry_of.push_back(i);
  }
  return trace;
}

/// Deterministic outcome of one replay.
struct ReplayCounts {
  stubby::ServiceStats stats;
  stubby::CostInstrumentation costing;
  double units = 0, subplans = 0;
  DataflowTotals dataflow;
  uint64_t evictions = 0, stored_bytes = 0, entries = 0;

  std::string Fingerprint() const {
    return stats.ToString() + "|" + costing.ToString() + "|" +
           std::to_string(units) + "/" + std::to_string(subplans) + "/" +
           std::to_string(dataflow.map_input_records) + "/" +
           std::to_string(dataflow.shuffle_bytes) + "/" +
           std::to_string(evictions) + "/" + std::to_string(stored_bytes) +
           "/" + std::to_string(entries);
  }
};

struct Replay {
  double seconds = 0;  ///< summed Submit + Drain time
  double optimize_s = 0, execute_s = 0;
  std::vector<double> latency_s;
  ReplayCounts counts;
  std::unique_ptr<StubbyService> service;
};

stubby::ServiceOptions ServiceConfig() {
  stubby::ServiceOptions options;
  options.store.byte_budget = kStoreByteBudget;
  return options;
}

/// Replays the trace through a fresh daemon as a closed loop: wave_size
/// submissions outstanding, the next wave submitted when Drain returns.
Replay RunReplay(const Trace& trace, size_t pass, ThreadPool* pool,
                 Results* out) {
  Replay replay;
  replay.service = std::make_unique<StubbyService>(ServiceConfig(), pool);
  StubbyService& service = *replay.service;
  const size_t wave = stubby::ServiceOptions{}.wave_size;
  const size_t n = trace.submissions.size();
  std::vector<Clock::time_point> submitted(wave);
  for (size_t first = 0; first < n; first += wave) {
    const size_t count = std::min(wave, n - first);
    bool admitted = true;
    for (size_t j = 0; j < count; ++j) {
      Span span("service.Submit",
                "pass" + std::to_string(pass) + "/req" +
                    std::to_string(first + j));
      submitted[j] = Clock::now();
      Result<uint64_t> id = service.Submit(trace.submissions[first + j]);
      replay.seconds += span.Stop();
      if (!id.ok()) {
        out->Fail("request " + std::to_string(first + j) + " rejected: " +
                  id.status().ToString());
        admitted = false;
      }
    }
    Span drain("service.Drain", "pass" + std::to_string(pass) + "/wave" +
                                    std::to_string(first / wave));
    std::vector<RequestResult> results = service.Drain();
    const Clock::time_point done = Clock::now();
    replay.seconds += drain.Stop();
    if (!admitted || results.size() != count) {
      for (size_t j = 0; j < count; ++j) out->Attempt(false);
      continue;
    }
    for (size_t j = 0; j < count; ++j) {
      const RequestResult& r = results[j];
      const Entry& e = trace.universe[trace.entry_of[first + j]];
      replay.latency_s.push_back(SecondsBetween(submitted[j], done));
      bool ok = r.status.ok() && SameOutputs(r.session.outputs, e.recompute);
      if (!r.status.ok()) {
        out->Fail(e.name + ": " + r.status.ToString());
      } else if (!ok) {
        out->Fail(e.name + ": outputs differ from the store-free recompute");
      }
      out->Attempt(ok);
      if (!r.status.ok()) continue;
      ReplayCounts& c = replay.counts;
      const stubby::OptimizeReport& report = r.session.report;
      replay.optimize_s += r.session.optimize_sec;
      replay.execute_s += r.session.execute_sec;
      c.costing.Add(report.costing);
      c.units += report.units_processed;
      c.subplans += report.subplans_enumerated;
      c.dataflow.Add(r.session.dataflow);
    }
  }
  replay.counts.stats = service.stats();
  replay.counts.evictions = service.store().evictions();
  replay.counts.stored_bytes = service.store().stored_bytes();
  replay.counts.entries = service.store().num_entries();
  return replay;
}

/// The same trace through a sequential ReuseSession loop over one store
/// (service.sequential_s); outputs are checked like the daemon's.
double RunSequential(const Trace& trace, ThreadPool* pool, Results* out) {
  ResultStore store(ServiceConfig().store);
  double seconds = 0;
  for (size_t i = 0; i < trace.submissions.size(); ++i) {
    const Submission& sub = trace.submissions[i];
    const Entry& e = trace.universe[trace.entry_of[i]];
    Span span("reuse.ReuseSession.Run", "sequential/req" + std::to_string(i));
    Result<ReuseSessionResult> r =
        ReuseSession(&store).Run(*sub.plan, *sub.dfs, sub.options, pool);
    seconds += span.Stop();
    if (!r.ok() || !SameOutputs(r->outputs, e.recompute)) {
      out->Fail("sequential replay of " + e.name + " failed or differs");
    }
  }
  return seconds;
}

/// SaveToFile / LoadFromFile of the final store (reuse.catalog_*).
void MeasureCatalog(const ResultStore& store, const RunConfig& cfg,
                    Results* out) {
  const std::string path = cfg.out_dir + "/catalog-seed" +
                           std::to_string(cfg.seed) + ".json";
  Span save("reuse.ResultStore.SaveToFile", "catalog");
  const Status saved = store.SaveToFile(path);
  const double save_s = save.Stop();
  if (!saved.ok()) {
    out->Fail("catalog save: " + saved.ToString());
    return;
  }
  Span load("reuse.ResultStore.LoadFromFile", "catalog");
  Result<ResultStore> loaded = ResultStore::LoadFromFile(path);
  const double load_s = load.Stop();
  std::error_code ec;
  const double bytes = static_cast<double>(std::filesystem::file_size(path, ec));
  std::filesystem::remove(path, ec);
  if (!loaded.ok() || loaded->Serialize() != store.Serialize()) {
    out->Fail("catalog does not round-trip through SaveToFile/LoadFromFile");
    return;
  }
  out->Set("reuse.catalog_save_s", save_s, "s");
  out->Set("reuse.catalog_load_s", load_s, "s");
  out->SetExact("reuse.catalog_bytes", bytes, "bytes");
}

}  // namespace

void RunStubbydZipf(const RunConfig& cfg, ThreadPool* pool, Results* out) {
  Trace trace;
  std::vector<double> setup_s;
  const int repeats = cfg.shortened ? 1 : kSetupRepeats;
  for (int rep = 0; rep < repeats; ++rep) {
    const Clock::time_point t0 = Clock::now();
    Result<Trace> built = BuildTrace(cfg, pool);
    if (!built.ok()) {
      out->Fail("setup: " + built.status().ToString());
      return;
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    trace = std::move(*built);
  }
  out->Set("setup_s", Median(setup_s), "s");
  std::printf("setup: %d x %.3fs (median); %zu submissions over %zu "
              "workflows\n",
              repeats, Median(setup_s), trace.submissions.size(),
              trace.universe.size());

  std::vector<PassTiming> passes;
  std::vector<Replay> replays;
  pool->ResetStats();
  const Clock::time_point start = Clock::now();
  while (NeedAnotherPass(cfg, passes, start)) {
    PassTiming pass;
    pass.traced = PassIsTraced(cfg, passes.size());
    GlobalTracer().set_recording(pass.traced);
    Replay replay = RunReplay(trace, passes.size(), pool, out);
    GlobalTracer().set_recording(false);
    pass.ops = static_cast<int>(trace.submissions.size());
    pass.seconds = replay.seconds;
    passes.push_back(pass);
    if (!replays.empty() && replay.counts.Fingerprint() !=
                                replays.front().counts.Fingerprint()) {
      out->Fail("replays of one trace differ in counters or store state");
    }
    // Only the first replay's daemon is kept (for the catalog probe).
    if (!replays.empty()) replay.service.reset();
    replays.push_back(std::move(replay));
  }
  if (out->failed > 0) return;
  const Replay& first = replays.front();
  const ReplayCounts& c = first.counts;
  const ThreadPool::Stats pool_stats = pool->stats();

  std::vector<double> latency_s, optimize_s, execute_s, wall_s;
  for (const Replay& r : replays) {
    latency_s.insert(latency_s.end(), r.latency_s.begin(), r.latency_s.end());
    optimize_s.push_back(r.optimize_s);
    execute_s.push_back(r.execute_s);
    wall_s.push_back(r.seconds);
  }
  std::vector<double> speedups;
  double profile_s = 0;
  for (const Entry& e : trace.universe) {
    if (!e.table1) continue;
    speedups.push_back(e.pig_makespan / e.stubby_makespan);
    profile_s += e.profile_s;
    out->Set("optimizer.optimize_s." + e.name, e.optimize_s, "s");
  }
  const double completed = static_cast<double>(c.stats.completed);
  ReportThroughput(cfg, passes, out);
  out->Set("optimize_s", Median(optimize_s), "s");
  out->SetExact("speedup_geomean", Geomean(speedups), "x");
  out->Set("request_p50_ms", 1e3 * Percentile(latency_s, 0.50), "ms");
  out->Set("request_p99_ms", 1e3 * Percentile(latency_s, 0.99), "ms");

  const ReuseStats& reuse = c.stats.reuse;
  out->Set("profiler.profile_s", profile_s, "s");
  out->SetExact("optimizer.units_processed", c.units);
  out->SetExact("optimizer.subplans_enumerated", c.subplans);
  ReportCosting(c.costing, Median(optimize_s), out);
  c.dataflow.Report(out);
  out->SetExact("reuse.lookups", reuse.lookups);
  out->SetExact("reuse.workflow_hits", reuse.workflow_hits);
  out->SetExact("reuse.whole_job_hits", reuse.whole_job_hits);
  out->SetExact("reuse.prefix_hits", reuse.prefix_hits);
  out->SetExact("reuse.registered", reuse.registered);
  out->SetExact("reuse.search_probes", reuse.search_probes);
  out->SetExact("reuse.probe_cache_hits", reuse.probe_cache_hits);
  out->SetExact("reuse.probe_cache_misses", reuse.probe_cache_misses);
  const double probes = static_cast<double>(reuse.probe_cache_hits +
                                            reuse.probe_cache_misses);
  out->SetExact("reuse.probe_cache_hit_ratio",
                probes > 0 ? reuse.probe_cache_hits / probes : 0.0, "ratio");
  out->SetExact("reuse.evictions", c.evictions);
  out->SetExact("reuse.stored_bytes", c.stored_bytes, "bytes");
  out->Set("reuse.session_optimize_s", Median(optimize_s), "s");
  out->Set("reuse.session_execute_s", Median(execute_s), "s");
  out->SetExact("service.waves", c.stats.waves);
  out->SetExact("service.conflicts", c.stats.conflicts);
  out->SetExact("service.conflict_ratio",
                completed > 0 ? c.stats.conflicts / completed : 0.0, "ratio");
  out->SetExact("service.hit_rate",
                completed > 0 ? c.stats.requests_with_hits / completed : 0.0,
                "ratio");
  out->Set("service.daemon_s", Median(wall_s), "s");
  out->Set("service.pool_busy_frac",
           1e-6 * static_cast<double>(pool_stats.busy_usec) /
               (Sum(wall_s) * pool->threads()),
           "ratio");
  std::printf("stubbyd-zipf: %zu replays; %s\n", replays.size(),
              c.stats.ToString().c_str());
  std::printf("  store: %llu entries, %llu bytes, %llu evictions\n",
              static_cast<unsigned long long>(c.entries),
              static_cast<unsigned long long>(c.stored_bytes),
              static_cast<unsigned long long>(c.evictions));

  if (!cfg.trace) return;
  GlobalTracer().set_recording(true);
  const double sequential_s = RunSequential(trace, pool, out);
  MeasureCatalog(first.service->store(), cfg, out);
  GlobalTracer().set_recording(false);
  out->Set("service.sequential_s", sequential_s, "s");
  out->Set("service.daemon_speedup", sequential_s / Median(wall_s), "x");
}

}  // namespace perfbench
