#include "mr/bloom_filter.h"

#include <algorithm>

namespace stubby {

namespace {

constexpr size_t kWordsPerBlock = 8;  // 512-bit (64-byte) blocks
constexpr uint32_t kBitsPerBlock = kWordsPerBlock * 64;

/// splitmix64 finalizer: full-avalanche mixing of the key hash with the
/// filter seed, so filter bit positions are decorrelated from whatever
/// structure HashOnFields left in the input.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

BloomFilter::BloomFilter(int bits_log2, int num_hashes, uint64_t seed)
    : bits_log2_(std::clamp(bits_log2, 10, 30)),
      num_hashes_(std::clamp(num_hashes, 1, 8)),
      seed_(seed) {
  const uint64_t bits = 1ull << bits_log2_;
  num_blocks_ = static_cast<size_t>(bits / kBitsPerBlock);
  words_.assign(num_blocks_ * kWordsPerBlock, 0);
}

BloomFilter::Probe BloomFilter::ProbeFor(uint64_t hash) const {
  const uint64_t h1 = Mix(hash ^ seed_);
  const uint64_t h2 = Mix(h1 ^ 0xa0761d6478bd642full) | 1;  // odd: full cycle
  Probe p;
  // High bits pick the block; low bits walk the double-hash sequence.
  p.block_word = static_cast<size_t>((h1 >> 32) % num_blocks_) *
                 kWordsPerBlock;
  uint64_t h = h1;
  for (int i = 0; i < num_hashes_; ++i) {
    p.bits[i] = static_cast<uint32_t>(h % kBitsPerBlock);
    h += h2;
  }
  return p;
}

void BloomFilter::Insert(uint64_t hash) {
  const Probe p = ProbeFor(hash);
  for (int i = 0; i < num_hashes_; ++i) {
    words_[p.block_word + p.bits[i] / 64] |= 1ull << (p.bits[i] % 64);
  }
}

bool BloomFilter::MayContain(uint64_t hash) const {
  const Probe p = ProbeFor(hash);
  for (int i = 0; i < num_hashes_; ++i) {
    if ((words_[p.block_word + p.bits[i] / 64] &
         (1ull << (p.bits[i] % 64))) == 0) {
      return false;
    }
  }
  return true;
}

void BloomFilter::UnionWith(const BloomFilter& other) {
  if (other.words_.size() != words_.size()) return;
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

double BloomFilter::FillFraction() const {
  uint64_t set = 0;
  for (uint64_t w : words_) set += static_cast<uint64_t>(__builtin_popcountll(w));
  return words_.empty() ? 0.0
                        : static_cast<double>(set) /
                              static_cast<double>(words_.size() * 64);
}

int BloomFilter::SizeForKeys(uint64_t expected_keys, int bits_per_key,
                             int cap) {
  const uint64_t want =
      std::max<uint64_t>(1, expected_keys) *
      static_cast<uint64_t>(std::max(1, bits_per_key));
  int log2 = 10;
  while (log2 < cap && (1ull << log2) < want) ++log2;
  return log2;
}

BloomProbeMapFn::BloomProbeMapFn(std::string name, Schema schema,
                                 std::vector<std::string> key_fields)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      key_fields_(std::move(key_fields)) {
  for (const std::string& f : key_fields_) {
    if (auto idx = schema_.IndexOf(f)) key_indices_.push_back(*idx);
  }
}

void BloomProbeMapFn::Map(const Row& in, Emitter* out) {
  if (filter_ == nullptr ||
      filter_->MayContain(HashOnFields(in, key_indices_))) {
    out->Emit(in);
  }
}

std::shared_ptr<BloomProbeMapFn> BloomProbeMapFn::Bind(
    std::shared_ptr<const BloomFilter> filter) const {
  auto bound = std::make_shared<BloomProbeMapFn>(*this);
  bound->filter_ = std::move(filter);
  return bound;
}

}  // namespace stubby
