// Deterministic blocked Bloom filter for the predicate-transfer
// transformation (optimizer/bloom.h): the build pass inserts the join-key
// hashes of the smaller input, the probe pre-filter drops map-output rows
// of the other inputs whose key cannot join. Layout (block count, hash
// count, seed) is fixed at construction and every operation is a pure
// function of (layout, inserted hash multiset), so filters built from the
// same rows are bit-identical at any thread count: per-task partial
// filters OR-merge into the same bit pattern regardless of insertion
// order or task boundaries.
//
// Blocked layout: the filter is an array of 64-byte (8-word) blocks; a
// key's block is chosen from the high bits of its first derived hash and
// all of its `num_hashes` bits land inside that block (one cache line per
// probe). False positives are possible, false negatives are not — the
// property the conditions ledger relies on (a false positive only passes
// a row the join itself discards).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mr/functions.h"

namespace stubby {

/// CPU cost units per record of hashing a row's key fields and touching
/// one filter cache line — shared by the probe stage's cost and the
/// what-if pricing of the build pass.
inline constexpr double kBloomHashCpuPerRecord = 0.25;

/// Fixed seed the executor builds every predicate-transfer filter with:
/// part of the deterministic filter layout, so filters built from the same
/// build-side rows are bit-identical across runs and thread counts.
inline constexpr uint64_t kBloomFilterSeed = 0x73747562627962ull;  // "stubby b"

class BloomFilter {
 public:
  /// `bits_log2` in [10, 30]: total filter size is 2^bits_log2 bits.
  /// `num_hashes` in [1, 8]: bits set per key (all within one block).
  /// `seed` perturbs the hash derivation so independent filters over the
  /// same keys are independent.
  BloomFilter(int bits_log2, int num_hashes, uint64_t seed);

  /// Inserts a key hash (as produced by HashOnFields over the key columns).
  void Insert(uint64_t hash);

  /// True when the key hash may have been inserted; never false for an
  /// inserted hash.
  bool MayContain(uint64_t hash) const;

  /// OR-merges `other` into this filter. Layouts must match (same
  /// bits_log2, num_hashes, seed).
  void UnionWith(const BloomFilter& other);

  int bits_log2() const { return bits_log2_; }
  int num_hashes() const { return num_hashes_; }
  uint64_t seed() const { return seed_; }
  uint64_t SizeBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Fraction of set bits (diagnostic; drives no decision).
  double FillFraction() const;

  /// Smallest bits_log2 in [10, cap] giving >= `bits_per_key` bits per
  /// expected key (the transform's sizing rule).
  static int SizeForKeys(uint64_t expected_keys, int bits_per_key = 10,
                         int cap = 24);

 private:
  /// Word index of the first word of the key's block plus its in-block bit
  /// positions, derived from two splitmix-style hashes.
  struct Probe {
    size_t block_word;
    uint32_t bits[8];
  };
  Probe ProbeFor(uint64_t hash) const;

  int bits_log2_;
  int num_hashes_;
  uint64_t seed_;
  size_t num_blocks_;  // 8-word (512-bit) blocks
  std::vector<uint64_t> words_;
};

/// Pre-filter map stage the transform appends to each probe input: passes
/// a row iff the Bloom filter may contain its key-field hash. The plan
/// carries the stage *unbound* (null filter = pass-through, which is
/// always correct by the false-positive-only argument and keeps
/// profiling, validation, and serialization oblivious to execution
/// state); the executor binds the built filter per run via Bind(). Input
/// and output schemas are identical — the stage only drops rows.
class BloomProbeMapFn : public MapFn {
 public:
  /// `key_fields` name columns of `schema`; unknown names are resolved to
  /// no-op (the transform validates them against the map-output schema
  /// before constructing the stage).
  BloomProbeMapFn(std::string name, Schema schema,
                  std::vector<std::string> key_fields);

  void Map(const Row& in, Emitter* out) override;
  std::string name() const override { return name_; }
  const Schema& input_schema() const override { return schema_; }
  const Schema& output_schema() const override { return schema_; }
  /// One hash + one cache-line probe: far below a generic UDF record.
  double cpu_cost_per_record() const override {
    return kBloomHashCpuPerRecord;
  }
  bool stateless() const override { return true; }
  std::shared_ptr<MapFn> Clone() const override {
    return std::make_shared<BloomProbeMapFn>(*this);
  }

  /// A copy of this stage with `filter` attached (the executor's per-run
  /// binding step). The plan's own instance stays unbound.
  std::shared_ptr<BloomProbeMapFn> Bind(
      std::shared_ptr<const BloomFilter> filter) const;

  const std::vector<std::string>& key_fields() const { return key_fields_; }
  bool bound() const { return filter_ != nullptr; }

 private:
  std::string name_;
  Schema schema_;
  std::vector<std::string> key_fields_;
  std::vector<size_t> key_indices_;
  std::shared_ptr<const BloomFilter> filter_;  // null = pass-through
};

}  // namespace stubby
