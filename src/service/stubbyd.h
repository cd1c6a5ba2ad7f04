// stubbyd: a long-lived, multi-tenant optimizer service. Many logical
// tenants submit annotated workflow plans into one bounded queue; the
// service runs the full optimize -> reuse-rewrite -> execute -> register
// loop for each against ONE shared in-memory ResultStore, so every tenant's
// executions warm the catalog for everyone else (ReStore's repository
// model, PVLDB 2012, lifted from a per-process file to a daemon). Costing
// shares nothing across requests: each request's optimizer prices through
// its own plan pricers, exactly as a standalone Optimize call does.
//
// Isolation protocol (wave-based optimistic concurrency). Drain() takes
// requests off the queue in waves of `wave_size` (an explicit option,
// deliberately independent of the thread count):
//
//   Phase A — speculate (parallel). Each request of the wave runs against a
//   private copy of the authoritative store, frozen for the wave, with a
//   StoreJournal attached that records every Peek/Lookup/Register/Pin/
//   Unpin in order.
//
//   Phase B — commit (serial, submission order). For each request in turn,
//   the journal is replayed against a scratch copy of the authoritative
//   store, validating every recorded probe answer (hit-ness and snapshot
//   id, with ids minted after the fork point translated positionally).
//   All probes validate: the scratch becomes authoritative and the
//   speculative result is committed as-is — it is exactly what a
//   sequential run would have produced. Any probe diverges (an earlier
//   commit changed what this request observed): the speculation is
//   discarded and the request re-runs serially against the authoritative
//   store. Either way the committed result equals the sequential one, so a
//   replayed submission trace is bit-identical at ANY thread count and any
//   wave size; the conflict/rerun counters depend only on the wave size.
//
// Admission control: Submit into a full queue fails deterministically with
// FailedPrecondition. Per-tenant byte budgets: snapshots are attributed to
// the submitting tenant and evicted (policy-ranked, within the tenant's
// set) when the tenant exceeds its budget. Graceful degradation: when the
// shared store grows past `soft_degrade_bytes`, requests still probe and
// serve hits but stop registering outputs; past `hard_degrade_bytes` they
// run reuse-blind.

#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "optimizer/stubby.h"
#include "reuse/result_store.h"
#include "reuse/session.h"

namespace stubby {

class ThreadPool;

/// How much of the reuse loop a request ran with (the degradation ladder).
enum class DegradeLevel {
  kFull = 0,          ///< probe, serve hits, register outputs
  kRegisterSkip = 1,  ///< probe and serve hits, register nothing
  kBlind = 2,         ///< no store interaction at all
};

const char* DegradeLevelName(DegradeLevel level);

struct ServiceOptions {
  /// Admission bound: Submit fails once this many requests are queued.
  size_t queue_capacity = 256;
  /// Requests speculated concurrently per wave. A pure determinism knob:
  /// results never depend on it, conflict/rerun counters do — which is why
  /// it is an option and not the thread count.
  size_t wave_size = 8;
  /// Shared-store construction options (global byte budget + policy).
  ResultStore::Options store;
  /// Per-tenant snapshot byte budget (0 = unlimited), overridable per
  /// tenant by name. Enforced after each request commits, against the
  /// snapshots that tenant's requests created.
  uint64_t tenant_byte_budget = 0;
  std::map<std::string, uint64_t> tenant_budgets;
  /// Degradation thresholds on the shared store's stored_bytes()
  /// (0 = level disabled). At or past `soft`, requests skip registration;
  /// at or past `hard`, they run reuse-blind.
  uint64_t soft_degrade_bytes = 0;
  uint64_t hard_degrade_bytes = 0;
  /// Force adaptive suffix re-optimization on for every submission
  /// (StubbyOptions::reoptimize). Submissions that set the flag themselves
  /// are honored either way. Bit-transparent on outputs, so the daemon's
  /// replay-equals-sequential contract is unchanged.
  bool reoptimize = false;
};

/// One queued workflow submission. Plan and DFS are shared so a popular
/// workflow can sit in the queue many times without copies.
struct Submission {
  std::string tenant = "default";
  std::string name;  ///< caller-chosen label, echoed in the result
  std::shared_ptr<const Plan> plan;
  std::shared_ptr<const Dfs> dfs;
  StubbyOptions options;  ///< reuse_store/reuse_dfs/pool overwritten
};

/// What one submission produced.
struct RequestResult {
  uint64_t id = 0;  ///< submission id (assigned by Submit, 1-based)
  std::string tenant;
  std::string name;
  Status status;               ///< non-OK: the session run failed
  ReuseSessionResult session;  ///< valid when status is OK
  DegradeLevel degrade = DegradeLevel::kFull;
  bool reran = false;      ///< speculation conflicted; re-run serially
  double service_sec = 0;  ///< speculation + commit wall time
  double e2e_sec = 0;      ///< submit-to-commit wall time (queueing incl.)
};

/// Deterministic service counters (no wall times — everything here is
/// bit-identical across thread counts for the same submission trace).
struct ServiceStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;  ///< admission-control rejections
  uint64_t completed = 0;
  uint64_t failed = 0;  ///< session runs that returned an error
  uint64_t waves = 0;
  uint64_t conflicts = 0;  ///< speculations discarded and re-run
  uint64_t degraded_register_skip = 0;
  uint64_t degraded_blind = 0;
  uint64_t requests_with_hits = 0;  ///< any workflow/job/prefix hit
  uint64_t tenant_evictions = 0;    ///< evictions by per-tenant budgets
  ReuseStats reuse;                 ///< summed over completed requests

  std::string ToString() const;
};

/// The daemon. Thread-compatible surface: Submit may be called from any
/// thread; Drain (and the accessors) belong to the single service thread.
class StubbyService {
 public:
  explicit StubbyService(ServiceOptions options, ThreadPool* pool = nullptr);

  /// Enqueues a submission; returns its id, or FailedPrecondition when the
  /// queue is at capacity (deterministic admission control).
  Result<uint64_t> Submit(Submission submission);

  /// Processes the queue to empty, wave by wave, and returns the results
  /// in submission order.
  std::vector<RequestResult> Drain();

  const ServiceStats& stats() const { return stats_; }
  const ResultStore& store() const { return store_; }
  ResultStore& store() { return store_; }
  size_t queue_depth() const;

  /// Stored bytes currently attributed to `tenant` (0 if unknown).
  uint64_t TenantBytes(const std::string& tenant) const;
  uint64_t TenantBudget(const std::string& tenant) const;
  DegradeLevel CurrentDegradeLevel() const {
    return LevelFor(store_.stored_bytes());
  }

 private:
  struct Pending {
    uint64_t id = 0;
    Submission submission;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Phase-A outcome of one request, consumed by Commit.
  struct Speculation {
    DegradeLevel level = DegradeLevel::kFull;
    bool base_nonempty = false;  ///< num_entries() > 0 at the fork point
    uint64_t fork_base = 0;      ///< next_snapshot_id() at the fork point
    StoreJournal journal;
    Status status = Status::OK();
    ReuseSessionResult result;
    double wall_sec = 0;
  };

  DegradeLevel LevelFor(uint64_t stored_bytes) const;
  void Speculate(const Pending& pending, Speculation* spec);
  RequestResult Commit(const Pending& pending, Speculation* spec);
  /// Replays `spec`'s journal against a scratch copy of the store,
  /// validating probes. On success installs the scratch as authoritative,
  /// records created snapshot ids into `created`, and returns true.
  bool ReplayJournal(const Speculation& spec,
                     std::set<std::string>* created);
  void Account(const std::string& tenant, const Status& status,
               const ReuseSessionResult& result, DegradeLevel level,
               const std::set<std::string>& created);

  ServiceOptions options_;
  ThreadPool* pool_;
  ResultStore store_;
  ServiceStats stats_;
  /// Snapshot ids each tenant's requests created (pruned to live ids).
  std::map<std::string, std::set<std::string>> owned_;

  mutable std::mutex mu_;  ///< guards queue_ and next_id_
  std::deque<Pending> queue_;
  uint64_t next_id_ = 1;
};

}  // namespace stubby
