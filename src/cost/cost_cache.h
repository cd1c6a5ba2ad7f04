// Content digests and the costing layer's counters. CostDigest is the
// 128-bit order-sensitive mixer the reuse signatures (reuse/signature.h)
// and the optimizer's option salt build their keys with; MixValueDigest and
// MixPartitionSpecDigest are the value and partition-spec mixers those keys
// share. CostInstrumentation counts what the what-if engine and the unit
// optimizer did during one run.
//
// The file keeps its name because perfbench/ includes it for
// CostInstrumentation; rename it with the next perfbench/ change.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workflow/plan.h"

namespace stubby {

/// 128-bit content digest key. Wide enough that accidental collisions are
/// out of reach for any realistic catalog (a collision would serve one
/// computation's stored result for another).
using CostKey = std::pair<uint64_t, uint64_t>;

/// Incremental 128-bit mixer. Order-sensitive: Mix(a), Mix(b) differs from
/// Mix(b), Mix(a).
class CostDigest {
 public:
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

/// Mixes one Value (type tag + payload, bit-exact for doubles). Exposed for
/// digests over row contents — the reuse subsystem's dataset content keys.
void MixValueDigest(CostDigest* d, const Value& v);

/// Mixes a PartitionSpec (type, fields, split points, split_points_from).
/// Exposed for the reuse subsystem's layout and job-identity digests.
void MixPartitionSpecDigest(CostDigest* d, const PartitionSpec& p);

/// Counters describing what the costing layer did during one optimizer run
/// (or any other instrumented sequence of what-if calls).
struct CostInstrumentation {
  /// WhatIfEngine::Cost invocations.
  uint64_t whatif_invocations = 0;
  /// Always 0; perfbench/ reports it. Delete with the next perfbench/ change.
  uint64_t plan_cache_hits = 0;
  /// Always 0; perfbench/ reports it. Delete with the next perfbench/ change.
  uint64_t plan_cache_misses = 0;
  /// Dataflow prediction passes: one per plan or configuration point priced,
  /// once the pass reaches a job.
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

}  // namespace stubby
