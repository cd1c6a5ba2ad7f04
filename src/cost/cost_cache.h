// Transparent costing memo for the what-if engine (Section 6: "Stubby
// stores and reuses the costs of the common subexpressions among
// subplans"): CostEstimates keyed by a digest of everything the what-if
// engine reads from a plan (job structure, stage statistics,
// configurations, base dataset annotations). Repeated costing of the same
// plan — the base plan of every unit, re-evaluated RRS seed points, the
// final report costing, and every plan an earlier request already priced —
// returns the stored estimate.
//
// One owner: stubbyd keeps one CostCache for the life of the service and
// lends it to each request through StubbyOptions::cost_cache, so requests
// reuse each other's estimates. A plain StubbyOptimizer::Optimize call
// prices without a memo.
//
// Transparent: cached and uncached costing produce bit-identical
// CostEstimates (entries store the exact structs that the engine computed,
// and digests cover every input the computation reads). Capacity-bounded
// with LRU eviction; an evicted entry is simply recomputed, which yields
// the same bits again.
//
// Concurrency model. CostCache is internally synchronized (the memo map is
// sharded, each shard behind its own mutex), so stray concurrent use is
// memory-safe — but lock interleaving alone cannot make hit/miss counters
// or LRU victims deterministic. Parallel optimizer stages therefore use
// the snapshot/overlay protocol instead: the shared cache is frozen for the
// duration of a task batch (readers go through PeekPlan, which never
// mutates recency), each task routes its reads and writes through a
// private CostCacheOverlay, and after the batch the overlays merge into the
// shared cache serially in task submission order. Every task sees exactly
// the frozen snapshot plus its own writes, and the merged cache state is a
// pure function of the submission order — so costing results AND
// instrumentation counters are bit-identical for any thread count. The
// protocol is applied identically in single-threaded runs, making thread
// count unobservable.

#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cost/whatif.h"
#include "workflow/plan.h"

namespace stubby {

/// 128-bit content digest key. Wide enough that accidental collisions are
/// out of reach for any realistic optimizer run (the transparency guarantee
/// would otherwise be probabilistic in a way that matters).
using CostKey = std::pair<uint64_t, uint64_t>;

struct CostKeyHash {
  size_t operator()(const CostKey& k) const {
    // The lanes are already well-mixed; fold them.
    return static_cast<size_t>(k.first ^ (k.second * 0x9e3779b97f4a7c15ull));
  }
};

/// Incremental 128-bit mixer over the cost-relevant content of plans and
/// jobs. Order-sensitive: Mix(a), Mix(b) differs from Mix(b), Mix(a).
class CostDigest {
 public:
  CostDigest() = default;
  /// Resumes mixing after a digest whose value() was `state` (the value is
  /// the digest's whole state).
  explicit CostDigest(CostKey state) : a_(state.first), b_(state.second) {}

  CostDigest& Mix(uint64_t v);
  CostDigest& Mix(double v);
  CostDigest& Mix(bool v) { return Mix(static_cast<uint64_t>(v ? 1 : 2)); }
  CostDigest& Mix(const std::string& s);
  CostDigest& Mix(const std::vector<std::string>& strings);

  CostKey value() const { return {a_, b_}; }

 private:
  uint64_t a_ = 0x6a09e667f3bcc908ull;  // arbitrary distinct seeds
  uint64_t b_ = 0xbb67ae8584caa73bull;
};

/// Digest over everything the what-if engine's job prediction and the
/// phase-time model read from the job itself: id, configuration, effective
/// reduce tasks, branch structure, stage statistics, partition specs, prune
/// lists, and profile annotations. Equivalent to JobStructureDigest
/// followed by MixJobConfiguration with the job's own configuration.
CostDigest JobContentDigest(const JobVertex& job);

/// The configuration-independent prefix of JobContentDigest: id and branch
/// structure, but not the JobConfig or the effective reduce-task count.
/// An RRS point changes only the latter, so the plan pricer computes this
/// once per tuned job and re-mixes just the configuration per point.
CostDigest JobStructureDigest(const JobVertex& job);

/// Mixes the configuration-dependent suffix (the JobConfig fields and the
/// effective reduce-task count) of `job` configured as `config` into a
/// structure digest. With `config == job.config` this completes it to
/// JobContentDigest(job).
void MixJobConfiguration(CostDigest* d, const JobVertex& job,
                         const JobConfig& config);

/// Mixes one Value (type tag + payload, bit-exact for doubles). Exposed for
/// digests over row contents — the reuse subsystem's dataset content keys.
void MixValueDigest(CostDigest* d, const Value& v);

/// Mixes a PartitionSpec (type, fields, split points, split_points_from).
/// Exposed for the reuse subsystem's layout and job-identity digests.
void MixPartitionSpecDigest(CostDigest* d, const PartitionSpec& p);

/// Digest over everything WhatIfEngine::Cost reads from a plan: every
/// job's content digest plus the base datasets' size/layout annotations.
/// Graph topology is covered through the jobs' input/output dataset ids.
CostKey PlanCostDigest(const Plan& plan);

/// PlanCostDigest assembled from precomputed per-job keys, one per job of
/// `plan` in `plan.jobs()` order. With JobContentDigest(job) for every job
/// the result is PlanCostDigest(plan); the plan pricer passes the tuned
/// jobs' keys under a point's configurations instead.
CostKey PlanCostDigestFrom(const Plan& plan,
                           const std::vector<CostKey>& job_keys);

/// Counters describing what the costing layer did during one optimizer run
/// (or any other instrumented sequence of what-if calls).
struct CostInstrumentation {
  /// WhatIfEngine::Cost invocations.
  uint64_t whatif_invocations = 0;
  /// Whole-plan memo hits / misses (misses only counted when a cache is
  /// attached; without a cache every Cost call is a full computation).
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  /// Dataflow prediction passes: one per plan or configuration point priced
  /// without a memo hit, once the pass reaches a job.
  uint64_t full_predictions = 0;
  /// Individual job predictions. A plan pricer predicts the jobs no tuned
  /// job reaches once when compiled, then only the rest per point.
  uint64_t job_predictions = 0;
  /// Always 0; perfbench/ reports it. Delete with the next perfbench/ change.
  uint64_t job_cache_hits = 0;
  /// RRS configuration-point evaluations (counted by the unit optimizer).
  uint64_t rrs_evaluations = 0;
  /// Reuse-rewritten subplan candidates priced through the engine (counted
  /// by the reuse-aware unit search via the same per-task instrumentation
  /// deltas as every other counter, so the value is thread-count
  /// invariant).
  uint64_t reuse_priced_candidates = 0;

  void Add(const CostInstrumentation& other);
  std::string ToString() const;
};

/// Read-only view of a costing memo: lookups that never change recency or
/// contents. This is how overlay tasks read the frozen shared cache (and
/// how overlays chain). Returned pointers stay valid while the source is
/// frozen (no concurrent Insert).
class CostSource {
 public:
  virtual ~CostSource() = default;
  virtual const CostEstimate* PeekPlan(const CostKey& key) const = 0;
};

/// Mutable costing memo: what WhatIfEngine drives. Find refreshes LRU
/// recency (or records that it would have); Touch refreshes recency
/// without returning the entry (used when replaying an overlay's access
/// log during a merge).
class CostStore : public CostSource {
 public:
  virtual const CostEstimate* FindPlan(const CostKey& key) = 0;
  virtual void InsertPlan(const CostKey& key, CostEstimate est) = 0;
  virtual void TouchPlan(const CostKey& key) = 0;
};

/// The whole-plan memo plus eviction bookkeeping. stubbyd owns one for the
/// life of the service. Sharded: keys map to one of up to 16 shards (the
/// count derives from the capacity, never from the thread count), each an
/// independently locked LRU map — concurrent Peeks never contend across
/// shards, and caches small enough to need global LRU order (capacity
/// < 128) keep a single shard.
class CostCache final : public CostStore {
 public:
  struct Options {
    size_t plan_capacity = 1024;
  };

  CostCache() : CostCache(Options{}) {}
  explicit CostCache(Options options);

  /// Find refreshes LRU recency; the returned pointer is valid until the
  /// next Insert into the key's shard.
  const CostEstimate* FindPlan(const CostKey& key) override {
    return plans_.Find(key);
  }
  void InsertPlan(const CostKey& key, CostEstimate est) override {
    plans_.Insert(key, std::move(est));
  }
  void TouchPlan(const CostKey& key) override { plans_.Touch(key); }
  const CostEstimate* PeekPlan(const CostKey& key) const override {
    return plans_.Peek(key);
  }

  size_t plan_entries() const { return plans_.size(); }
  uint64_t plan_evictions() const { return plans_.evictions(); }

 private:
  template <typename V>
  class LruMap {
   public:
    const V* Find(const CostKey& key) {
      auto it = index_.find(key);
      if (it == index_.end()) return nullptr;
      entries_.splice(entries_.begin(), entries_, it->second);
      return &it->second->second;
    }

    const V* Peek(const CostKey& key) const {
      auto it = index_.find(key);
      return it == index_.end() ? nullptr : &it->second->second;
    }

    void Touch(const CostKey& key) {
      auto it = index_.find(key);
      if (it != index_.end()) {
        entries_.splice(entries_.begin(), entries_, it->second);
      }
    }

    void Insert(const CostKey& key, V value, size_t capacity) {
      auto it = index_.find(key);
      if (it != index_.end()) {
        it->second->second = std::move(value);
        entries_.splice(entries_.begin(), entries_, it->second);
        return;
      }
      entries_.emplace_front(key, std::move(value));
      index_[key] = entries_.begin();
      while (entries_.size() > capacity) {
        index_.erase(entries_.back().first);
        entries_.pop_back();
        ++evictions_;
      }
    }

    size_t size() const { return entries_.size(); }
    uint64_t evictions() const { return evictions_; }

   private:
    std::list<std::pair<CostKey, V>> entries_;
    std::unordered_map<CostKey, typename std::list<std::pair<CostKey, V>>::iterator,
                       CostKeyHash>
        index_;
    uint64_t evictions_ = 0;
  };

  /// LruMap partitioned into independently locked shards. The shard of a
  /// key and the shard count depend only on the key and the capacity, so
  /// eviction behavior is identical across runs and thread counts.
  template <typename V>
  class ShardedLru {
   public:
    /// Shard count derives from the capacity: default-sized caches spread
    /// lock contention 16 ways, but below 128 entries a single shard keeps
    /// exact global LRU order. A pure function of the capacity — never of
    /// the thread count.
    explicit ShardedLru(size_t capacity) {
      size_t n = capacity / 64;
      if (n < 1) n = 1;
      if (n > 16) n = 16;
      shard_capacity_ = (capacity + n - 1) / n;
      shards_.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        shards_.push_back(std::make_unique<Shard>());
      }
    }

    const V* Find(const CostKey& key) {
      Shard& s = ShardOf(key);
      std::lock_guard<std::mutex> lock(s.mu);
      return s.map.Find(key);
    }
    const V* Peek(const CostKey& key) const {
      const Shard& s = ShardOf(key);
      std::lock_guard<std::mutex> lock(s.mu);
      return s.map.Peek(key);
    }
    void Touch(const CostKey& key) {
      Shard& s = ShardOf(key);
      std::lock_guard<std::mutex> lock(s.mu);
      s.map.Touch(key);
    }
    void Insert(const CostKey& key, V value) {
      Shard& s = ShardOf(key);
      std::lock_guard<std::mutex> lock(s.mu);
      s.map.Insert(key, std::move(value), shard_capacity_);
    }
    size_t size() const {
      size_t total = 0;
      for (const auto& s : shards_) {
        std::lock_guard<std::mutex> lock(s->mu);
        total += s->map.size();
      }
      return total;
    }
    uint64_t evictions() const {
      uint64_t total = 0;
      for (const auto& s : shards_) {
        std::lock_guard<std::mutex> lock(s->mu);
        total += s->map.evictions();
      }
      return total;
    }

   private:
    struct Shard {
      mutable std::mutex mu;
      LruMap<V> map;
    };
    Shard& ShardOf(const CostKey& key) const {
      return *shards_[CostKeyHash{}(key) % shards_.size()];
    }

    size_t shard_capacity_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;
  };

  ShardedLru<CostEstimate> plans_;
};

/// A task-private write layer over a frozen CostSource: reads fall through
/// to the parent, writes stay local, and every recency-relevant access is
/// journaled. After the parallel batch, MergeInto replays the journal into
/// the shared store serially — the shared cache ends up in the exact state
/// a single thread running the tasks in submission order would have left
/// behind (modulo the frozen snapshot: tasks of one batch do not observe
/// each other's inserts, by design, at every thread count). Overlays nest:
/// an RRS point block's overlay parents on its candidate's overlay.
///
/// Not internally synchronized — each overlay belongs to exactly one task.
class CostCacheOverlay final : public CostStore {
 public:
  /// `parent` may be null (no backing memo: all reads miss until written).
  explicit CostCacheOverlay(const CostSource* parent) : parent_(parent) {}

  const CostEstimate* PeekPlan(const CostKey& key) const override;
  const CostEstimate* FindPlan(const CostKey& key) override;
  void InsertPlan(const CostKey& key, CostEstimate est) override;
  void TouchPlan(const CostKey& key) override;

  /// Replays this overlay's journal into `store` in access order: touches
  /// re-assert recency, inserts write the overlay's (final) value. Call
  /// serially, in task submission order.
  void MergeInto(CostStore* store) const;

 private:
  enum class Op : uint8_t { kTouch, kInsert };

  const CostSource* parent_;
  std::unordered_map<CostKey, CostEstimate, CostKeyHash> plans_;
  std::vector<std::pair<Op, CostKey>> journal_;
};

}  // namespace stubby
