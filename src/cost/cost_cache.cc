#include "cost/cost_cache.h"

#include <bit>
#include <cstring>

#include "common/strings.h"

namespace stubby {

namespace {

/// splitmix64 finalizer — the per-word mixing step of both digest lanes.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

void MixValueDigest(CostDigest* d, const Value& v) {
  if (v.is_int()) {
    d->Mix(uint64_t{1}).Mix(static_cast<uint64_t>(v.AsInt()));
  } else if (v.is_double()) {
    d->Mix(uint64_t{2}).Mix(v.AsDouble());
  } else {
    d->Mix(uint64_t{3}).Mix(v.AsString());
  }
}

void MixPartitionSpecDigest(CostDigest* d, const PartitionSpec& p) {
  d->Mix(static_cast<uint64_t>(p.type));
  d->Mix(p.partition_fields);
  d->Mix(p.sort_fields);
  d->Mix(static_cast<uint64_t>(p.split_points.size()));
  for (const Row& r : p.split_points) {
    d->Mix(static_cast<uint64_t>(r.size()));
    for (const Value& v : r.values()) MixValueDigest(d, v);
  }
  d->Mix(p.split_points_from);
}

CostDigest& CostDigest::Mix(uint64_t v) {
  a_ = Mix64(a_ ^ v);
  b_ = Mix64(b_ + (v ^ 0xa5a5a5a5a5a5a5a5ull));
  return *this;
}

CostDigest& CostDigest::Mix(double v) {
  return Mix(std::bit_cast<uint64_t>(v));
}

CostDigest& CostDigest::Mix(const std::string& s) {
  Mix(static_cast<uint64_t>(s.size()));
  size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    uint64_t word;
    std::memcpy(&word, s.data() + i, 8);
    Mix(word);
  }
  if (i < s.size()) {
    uint64_t word = 0;
    std::memcpy(&word, s.data() + i, s.size() - i);
    Mix(word);
  }
  return *this;
}

CostDigest& CostDigest::Mix(const std::vector<std::string>& strings) {
  Mix(static_cast<uint64_t>(strings.size()));
  for (const std::string& s : strings) Mix(s);
  return *this;
}

void CostInstrumentation::Add(const CostInstrumentation& other) {
  whatif_invocations += other.whatif_invocations;
  full_predictions += other.full_predictions;
  job_predictions += other.job_predictions;
  rrs_evaluations += other.rrs_evaluations;
  reuse_priced_candidates += other.reuse_priced_candidates;
}

std::string CostInstrumentation::ToString() const {
  return StrFormat(
      "whatif=%llu full=%llu job_pred=%llu rrs=%llu reuse_priced=%llu",
      (unsigned long long)whatif_invocations,
      (unsigned long long)full_predictions,
      (unsigned long long)job_predictions,
      (unsigned long long)rrs_evaluations,
      (unsigned long long)reuse_priced_candidates);
}

}  // namespace stubby
