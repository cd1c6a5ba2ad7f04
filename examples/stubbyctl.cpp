// stubbyctl — command-line driver for the library.
//
//   stubbyctl list
//   stubbyctl show <WF> [--rows N]
//   stubbyctl optimize <WF> [--optimizer stubby|vertical|horizontal|
//                            baseline|starfish|ysmart|mrshare]
//                           [--rows N] [--run] [--dot] [--export FILE]
//   stubbyctl compare <WF> [--rows N]
//   stubbyctl reuse <WF> [--rows N] [--dot] [--store FILE]
//                        [--policy lru|benefit]
//   stubbyctl serve [--submissions N] [--tenants N] [--rows N] [--threads N]
//                   [--wave N] [--queue N] [--budget-mb N]
//                   [--tenant-budget-mb N] [--soft-mb N] [--hard-mb N]
//                   [--policy lru|benefit] [--store FILE]
//   stubbyctl submit <WF[,WF...]> [--tenant T] [--rows N] [--store FILE]
//
// `optimize --run` executes original and optimized plans on the simulated
// cluster and verifies result equivalence; `compare` prints the speedup of
// every optimizer on one workload; `reuse` submits the workload twice
// against a shared result store, prints the store catalog, and (with
// --dot) renders the rewritten second plan with reused scans highlighted.
// `reuse --store FILE` loads the catalog from FILE when it exists (exact
// Serialize round-trip, so hits continue across invocations) and saves it
// back after the run; --policy picks the eviction policy.
//
// `serve` runs a stubbyd session: a Zipf-skewed trace of N submissions over
// the whole workload registry, round-robined across logical tenants,
// drained through the daemon's wave pipeline against one shared store —
// with optional global/per-tenant byte budgets and the soft/hard
// degradation thresholds. `submit` pushes a comma-separated list of
// registry workloads through the daemon as one tenant and prints what each
// request reused; with --store both commands persist the shared catalog
// across invocations.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <memory>
#include <vector>

#include "baselines/mrshare.h"
#include "baselines/pig_baseline.h"
#include "baselines/starfish.h"
#include "baselines/ysmart.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/threading.h"
#include "service/stubbyd.h"
#include "exec/adaptive_runner.h"
#include "exec/workflow_runner.h"
#include "optimizer/bloom.h"
#include "optimizer/stubby.h"
#include "profiler/profiler.h"
#include "reuse/session.h"
#include "reuse/signature.h"
#include "workflow/dot.h"
#include "workflow/serialize.h"
#include "workloads/registry.h"

using namespace stubby;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: stubbyctl list\n"
               "       stubbyctl show <WF> [--rows N]\n"
               "       stubbyctl optimize <WF> [--optimizer NAME] [--rows N]"
               " [--run] [--dot]\n"
               "       stubbyctl compare <WF> [--rows N]\n"
               "       stubbyctl reuse <WF> [--rows N] [--dot]"
               " [--store FILE] [--policy lru|benefit]\n"
               "       stubbyctl serve [--submissions N] [--tenants N]"
               " [--rows N] [--threads N]\n"
               "                       [--wave N] [--queue N] [--budget-mb N]"
               " [--tenant-budget-mb N]\n"
               "                       [--soft-mb N] [--hard-mb N]"
               " [--policy lru|benefit] [--store FILE]\n"
               "       stubbyctl submit <WF[,WF...]> [--tenant T] [--rows N]"
               " [--store FILE]\n");
  return 2;
}

/// Loads an existing catalog for --store, refusing to proceed when the file
/// exists but cannot be parsed (saving on exit would destroy it).
Result<bool> LoadCatalogInto(const std::string& path, ResultStore* store) {
  std::FILE* probe = std::fopen(path.c_str(), "rb");
  if (probe == nullptr) {
    std::printf("starting a fresh catalog (%s)\n", path.c_str());
    return false;
  }
  std::fclose(probe);
  STUBBY_ASSIGN_OR_RETURN(ResultStore loaded,
                          ResultStore::LoadFromFile(path));
  std::printf("loaded %zu catalog entr%s from %s\n", loaded.num_entries(),
              loaded.num_entries() == 1 ? "y" : "ies", path.c_str());
  *store = std::move(loaded);
  return true;
}

Result<Workload> LoadProfiled(const std::string& abbr, int rows) {
  WorkloadOptions options;
  options.sample_rows = rows;
  STUBBY_ASSIGN_OR_RETURN(Workload w, MakeWorkload(abbr, options));
  Profiler profiler(options.cluster);
  Dfs dfs = w.dfs;
  STUBBY_RETURN_NOT_OK(profiler.ProfilePlan(&w.plan, &dfs));
  return w;
}

Result<Plan> OptimizeWith(const std::string& name, const Workload& w) {
  if (name == "baseline") return PigBaseline(w.plan);
  if (name == "starfish") return StarfishOptimize(w.plan);
  if (name == "ysmart") return YSmartOptimize(w.plan);
  if (name == "mrshare") return MRShareOptimize(w.plan);
  StubbyOptions opts;
  opts.bloom_transfer = BloomTransferFromEnv();
  if (name == "vertical") {
    opts.enable_horizontal = false;
  } else if (name == "horizontal") {
    opts.enable_intra_vertical = false;
    opts.enable_inter_vertical = false;
  } else if (name != "stubby") {
    return Status::InvalidArgument("unknown optimizer '" + name + "'");
  }
  StubbyOptimizer optimizer(opts);
  STUBBY_ASSIGN_OR_RETURN(OptimizeReport report, optimizer.Optimize(w.plan));
  std::printf("applied %zu transformation(s) in %.2fs, estimated cost %s\n",
              report.applied.size(), report.optimization_time_sec,
              HumanSeconds(report.estimated_cost).c_str());
  for (const auto& line : report.applied) std::printf("  - %s\n",
                                                      line.c_str());
  return std::move(report.plan);
}

double RunPlan(const Workload& w, const Plan& plan, Dfs* out) {
  WorkflowRunner runner(plan.cluster());
  Dfs dfs = w.dfs;
  auto flow = runner.Run(plan, &dfs);
  STUBBY_CHECK_OK(flow.status());
  if (out != nullptr) *out = std::move(dfs);
  return flow->makespan_sec;
}

bool Equivalent(const Plan& plan, const Dfs& a, const Dfs& b) {
  for (const auto& [id, ds] : plan.datasets()) {
    if (!ds.is_workflow_output) continue;
    auto ra = a.Get(id);
    auto rb = b.Get(id);
    if (!ra.ok() || !rb.ok() ||
        !RowsApproxEqual((*ra)->AllRows(), (*rb)->AllRows(), 1e-6)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  std::string wf = argc > 2 && argv[2][0] != '-' ? argv[2] : "";
  std::string optimizer = "stubby";
  std::string export_path;
  std::string store_path;
  std::string policy_name;
  std::string tenant = "default";
  int rows = 20000;
  int submissions = 64, tenants = 4, wave = 8, queue = 0;
  int threads = ThreadPool::HardwareThreads();
  int budget_mb = 0, tenant_budget_mb = 0, soft_mb = 0, hard_mb = 0;
  bool run = false, dot = false;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--rows") && i + 1 < argc) {
      rows = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--optimizer") && i + 1 < argc) {
      optimizer = argv[++i];
    } else if (!std::strcmp(argv[i], "--run")) {
      run = true;
    } else if (!std::strcmp(argv[i], "--dot")) {
      dot = true;
    } else if (!std::strcmp(argv[i], "--export") && i + 1 < argc) {
      export_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--store") && i + 1 < argc) {
      store_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--policy") && i + 1 < argc) {
      policy_name = argv[++i];
    } else if (!std::strcmp(argv[i], "--tenant") && i + 1 < argc) {
      tenant = argv[++i];
    } else if (!std::strcmp(argv[i], "--submissions") && i + 1 < argc) {
      submissions = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--tenants") && i + 1 < argc) {
      tenants = std::max(1, std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      threads = std::max(1, std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--wave") && i + 1 < argc) {
      wave = std::max(1, std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--queue") && i + 1 < argc) {
      queue = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--budget-mb") && i + 1 < argc) {
      budget_mb = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--tenant-budget-mb") && i + 1 < argc) {
      tenant_budget_mb = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--soft-mb") && i + 1 < argc) {
      soft_mb = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--hard-mb") && i + 1 < argc) {
      hard_mb = std::atoi(argv[++i]);
    }
  }

  if (cmd == "list") {
    for (const auto& abbr : AllWorkloadAbbrs()) {
      WorkloadOptions options;
      options.sample_rows = 1000;
      auto w = MakeWorkload(abbr, options);
      STUBBY_CHECK_OK(w.status());
      std::printf("%-4s %-32s %zu jobs, %s\n", abbr.c_str(), w->name.c_str(),
                  w->plan.num_jobs(),
                  HumanBytes(w->dataset_logical_bytes).c_str());
    }
    return 0;
  }

  // Shared stubbyd construction for `serve` and `submit`.
  auto make_service_options = [&]() -> ServiceOptions {
    ServiceOptions sopts;
    sopts.wave_size = static_cast<size_t>(wave);
    if (queue > 0) sopts.queue_capacity = static_cast<size_t>(queue);
    if (budget_mb > 0) {
      sopts.store.byte_budget = static_cast<uint64_t>(budget_mb) << 20;
    }
    if (!policy_name.empty()) {
      auto policy = EvictionPolicyFromName(policy_name);
      STUBBY_CHECK_OK(policy.status());
      sopts.store.policy = *policy;
    }
    if (tenant_budget_mb > 0) {
      sopts.tenant_byte_budget = static_cast<uint64_t>(tenant_budget_mb)
                                 << 20;
    }
    sopts.soft_degrade_bytes = static_cast<uint64_t>(soft_mb) << 20;
    sopts.hard_degrade_bytes = static_cast<uint64_t>(hard_mb) << 20;
    sopts.reoptimize = ReoptimizeFromEnv();
    return sopts;
  };
  auto print_service_summary = [&](const StubbyService& service) {
    std::printf("\n%s\n", service.stats().ToString().c_str());
    std::printf("store: %zu entries, %zu snapshot(s), %s stored, "
                "%llu eviction(s), degrade level %s\n",
                service.store().num_entries(),
                service.store().num_snapshots(),
                HumanBytes(service.store().stored_bytes()).c_str(),
                (unsigned long long)service.store().evictions(),
                DegradeLevelName(service.CurrentDegradeLevel()));
  };

  if (cmd == "serve") {
    ServiceOptions sopts = make_service_options();
    struct Entry {
      std::string name;
      std::shared_ptr<const Plan> plan;
      std::shared_ptr<const Dfs> dfs;
    };
    std::vector<Entry> universe;
    for (const auto& abbr : AllWorkloadAbbrs()) {
      auto w = LoadProfiled(abbr, rows);
      STUBBY_CHECK_OK(w.status());
      universe.push_back(
          {abbr, std::make_shared<const Plan>(std::move(w->plan)),
           std::make_shared<const Dfs>(std::move(w->dfs))});
    }
    ThreadPool pool(threads);
    StubbyService service(sopts, &pool);
    if (!store_path.empty()) {
      ResultStore loaded(sopts.store);
      auto had = LoadCatalogInto(store_path, &loaded);
      STUBBY_CHECK_OK(had.status());
      if (*had) {
        loaded.set_options(sopts.store);
        service.store() = std::move(loaded);
      }
    }
    std::printf("serving %d submission(s) over %zu workflow(s), "
                "%d tenant(s), wave %d, %d thread(s)\n",
                submissions, universe.size(), tenants, wave, threads);
    // Zipf-skewed arrivals; a full queue drains in place, so the trace is
    // identical for any --queue while still exercising admission control.
    Rng rng(20120821);
    std::vector<RequestResult> results;
    uint64_t queue_full = 0;
    for (int s = 0; s < submissions; ++s) {
      const Entry& e = universe[rng.NextZipf(universe.size(), 1.1) - 1];
      Submission sub;
      sub.tenant = "t" + std::to_string(rng.NextUint64(
                             static_cast<uint64_t>(tenants)));
      sub.name = e.name;
      sub.options.bloom_transfer = BloomTransferFromEnv();
      sub.plan = e.plan;
      sub.dfs = e.dfs;
      auto id = service.Submit(sub);
      if (!id.ok()) {
        ++queue_full;
        for (RequestResult& r : service.Drain()) {
          results.push_back(std::move(r));
        }
        id = service.Submit(std::move(sub));
        STUBBY_CHECK_OK(id.status());
      }
    }
    for (RequestResult& r : service.Drain()) results.push_back(std::move(r));

    std::map<std::string, std::pair<uint64_t, uint64_t>> by_workflow;
    for (const RequestResult& r : results) {
      STUBBY_CHECK_OK(r.status);
      auto& [count, hits] = by_workflow[r.name];
      ++count;
      if (r.session.reuse.workflow_hits + r.session.reuse.whole_job_hits +
              r.session.reuse.prefix_hits >
          0) {
        ++hits;
      }
    }
    std::printf("%-6s %10s %10s\n", "wf", "requests", "with-hits");
    for (const auto& [name, counts] : by_workflow) {
      std::printf("%-6s %10llu %10llu\n", name.c_str(),
                  (unsigned long long)counts.first,
                  (unsigned long long)counts.second);
    }
    if (queue_full > 0) {
      std::printf("queue filled %llu time(s) (drained in place)\n",
                  (unsigned long long)queue_full);
    }
    print_service_summary(service);
    for (int t = 0; t < tenants; ++t) {
      const std::string name = "t" + std::to_string(t);
      std::printf("tenant %-4s %12s\n", name.c_str(),
                  HumanBytes(service.TenantBytes(name)).c_str());
    }
    if (!store_path.empty()) {
      STUBBY_CHECK_OK(service.store().SaveToFile(store_path));
      std::printf("saved catalog to %s\n", store_path.c_str());
    }
    return 0;
  }
  if (wf.empty()) return Usage();

  if (cmd == "submit") {
    ServiceOptions sopts = make_service_options();
    ThreadPool pool(threads);
    StubbyService service(sopts, &pool);
    if (!store_path.empty()) {
      ResultStore loaded(sopts.store);
      auto had = LoadCatalogInto(store_path, &loaded);
      STUBBY_CHECK_OK(had.status());
      if (*had) {
        loaded.set_options(sopts.store);
        service.store() = std::move(loaded);
      }
    }
    for (const std::string& abbr : Split(wf, ',')) {
      auto w = LoadProfiled(abbr, rows);
      STUBBY_CHECK_OK(w.status());
      Submission sub;
      sub.tenant = tenant;
      sub.name = abbr;
      sub.options.bloom_transfer = BloomTransferFromEnv();
      sub.plan = std::make_shared<const Plan>(std::move(w->plan));
      sub.dfs = std::make_shared<const Dfs>(std::move(w->dfs));
      STUBBY_CHECK_OK(service.Submit(std::move(sub)).status());
    }
    for (const RequestResult& r : service.Drain()) {
      STUBBY_CHECK_OK(r.status);
      std::printf("#%llu %-6s tenant=%s %zu job(s) simulated %s "
                  "degrade=%s  [%s]\n",
                  (unsigned long long)r.id, r.name.c_str(),
                  r.tenant.c_str(), r.session.report.plan.num_jobs(),
                  HumanSeconds(r.session.simulated_cost).c_str(),
                  DegradeLevelName(r.degrade),
                  r.session.reuse.ToString().c_str());
    }
    print_service_summary(service);
    if (!store_path.empty()) {
      STUBBY_CHECK_OK(service.store().SaveToFile(store_path));
      std::printf("saved catalog to %s\n", store_path.c_str());
    }
    return 0;
  }

  if (cmd == "show") {
    auto w = LoadProfiled(wf, rows);
    STUBBY_CHECK_OK(w.status());
    std::printf("%s", w->plan.ToString().c_str());
    if (dot) std::printf("%s", PlanToDot(w->plan).c_str());
    return 0;
  }

  if (cmd == "optimize") {
    auto w = LoadProfiled(wf, rows);
    STUBBY_CHECK_OK(w.status());
    auto plan = OptimizeWith(optimizer, *w);
    STUBBY_CHECK_OK(plan.status());
    std::printf("\n%s", plan->ToString().c_str());
    if (dot) std::printf("%s", PlanToDot(*plan).c_str());
    if (!export_path.empty()) {
      std::FILE* fp = std::fopen(export_path.c_str(), "w");
      if (fp == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", export_path.c_str());
        return 1;
      }
      std::string text = ExportPlan(*plan);
      std::fwrite(text.data(), 1, text.size(), fp);
      std::fclose(fp);
      std::printf("exported annotated plan to %s (%zu bytes)\n",
                  export_path.c_str(), text.size());
    }
    if (run) {
      Dfs da, db;
      double t0 = RunPlan(*w, w->plan, &da);
      double t1 = RunPlan(*w, *plan, &db);
      std::printf("original %s -> optimized %s (%.2fx), outputs %s\n",
                  HumanSeconds(t0).c_str(), HumanSeconds(t1).c_str(),
                  t0 / t1,
                  Equivalent(w->plan, da, db) ? "identical" : "MISMATCH");
    }
    return 0;
  }

  if (cmd == "reuse") {
    auto w = LoadProfiled(wf, rows);
    STUBBY_CHECK_OK(w.status());
    ResultStore store;
    if (!store_path.empty()) {
      // Only a missing file means "fresh catalog". A file that exists but
      // fails to load is likely corrupt or foreign; overwriting it on exit
      // would destroy a possibly recoverable catalog, so bail out instead.
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
        store = std::move(*loaded);
        std::printf("loaded %zu catalog entr%s from %s\n",
                    store.num_entries(),
                    store.num_entries() == 1 ? "y" : "ies",
                    store_path.c_str());
      }
    }
    if (!policy_name.empty()) {
      auto policy = EvictionPolicyFromName(policy_name);
      STUBBY_CHECK_OK(policy.status());
      ResultStore::Options store_opts = store.options();
      store_opts.policy = *policy;
      store.set_options(store_opts);
    }
    ReuseSession session(&store);
    StubbyOptions opts;
    opts.reoptimize = ReoptimizeFromEnv();
    opts.bloom_transfer = BloomTransferFromEnv();

    auto first = session.Run(w->plan, w->dfs, opts);
    STUBBY_CHECK_OK(first.status());
    std::printf("pass 1: %zu job(s), simulated %s  [%s]\n",
                first->report.plan.num_jobs(),
                HumanSeconds(first->simulated_cost).c_str(),
                first->reuse.ToString().c_str());

    // Keep the whole-workflow tier off for the second pass so the rewrite
    // (rather than full elision) is what gets rendered.
    StubbyOptions second_opts = opts;
    second_opts.reuse_whole_workflow = false;
    auto second = session.Run(w->plan, w->dfs, second_opts);
    STUBBY_CHECK_OK(second.status());
    std::printf("pass 2: %zu job(s), simulated %s  [%s]\n",
                second->report.plan.num_jobs(),
                HumanSeconds(second->simulated_cost).c_str(),
                second->reuse.ToString().c_str());

    std::printf("\ncatalog: %zu entries, %zu snapshot(s), %s stored, "
                "%llu eviction(s)\n",
                store.num_entries(), store.num_snapshots(),
                HumanBytes(store.stored_bytes()).c_str(),
                (unsigned long long)store.evictions());
    std::printf("%-32s %-16s %12s %12s %6s\n", "key", "kind",
                "logical", "rows", "hits");
    for (const auto& [key, entry] : store.catalog()) {
      std::printf("%-32s %-16s %12s %12llu %6llu\n",
                  CostKeyToHex(key).c_str(), ReuseKindName(entry.kind),
                  HumanBytes(entry.logical_bytes).c_str(),
                  (unsigned long long)entry.logical_rows,
                  (unsigned long long)entry.hits);
    }
    std::printf("\nrewritten plan (pass 2):\n%s",
                second->report.plan.ToString().c_str());
    if (dot) std::printf("%s", PlanToDot(second->report.plan).c_str());
    if (!store_path.empty()) {
      STUBBY_CHECK_OK(store.SaveToFile(store_path));
      std::printf("saved catalog to %s\n", store_path.c_str());
    }
    return 0;
  }

  if (cmd == "compare") {
    auto w = LoadProfiled(wf, rows);
    STUBBY_CHECK_OK(w.status());
    auto baseline = PigBaseline(w->plan);
    STUBBY_CHECK_OK(baseline.status());
    double tb = RunPlan(*w, *baseline, nullptr);
    std::printf("%-10s %10s  speedup\n", "optimizer", "time");
    std::printf("%-10s %10s  %.2fx (reference)\n", "baseline",
                HumanSeconds(tb).c_str(), 1.0);
    for (const char* name :
         {"stubby", "vertical", "horizontal", "starfish", "ysmart",
          "mrshare"}) {
      auto plan = OptimizeWith(name, *w);
      STUBBY_CHECK_OK(plan.status());
      double t = RunPlan(*w, *plan, nullptr);
      std::printf("%-10s %10s  %.2fx\n", name, HumanSeconds(t).c_str(),
                  tb / t);
    }
    return 0;
  }
  return Usage();
}
