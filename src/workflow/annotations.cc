#include "workflow/annotations.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace stubby {

std::string SchemaAnnotation::ToString() const {
  std::string out;
  auto add = [&](const char* name, const std::optional<FieldSet>& fs) {
    if (!fs) return;
    if (!out.empty()) out += " ";
    out += name;
    out += "=" + FieldSetToString(*fs);
  };
  add("K1", k1);
  add("V1", v1);
  add("K2", k2);
  add("V2", v2);
  add("K3", k3);
  add("V3", v3);
  return out;
}

std::string FilterAnnotation::ToString() const {
  return StrFormat("{%g<=%s<%g}", lo, field.c_str(), hi);
}

std::string JoinAnnotation::ToString() const {
  std::string out = "join{filterable=";
  for (size_t i = 0; i < filterable_inputs.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%zu", filterable_inputs[i]);
  }
  return out + "}";
}

std::string StageStats::ToString() const {
  return StrFormat("sel=%.3f bsel=%.3f cpu=%.2f groups=%.4f",
                   record_selectivity, byte_selectivity, cpu_per_record,
                   groups_per_record);
}

double KeyHistogram::FractionInRange(double lo, double hi) const {
  if (bucket_fractions.empty() || max < min) return 1.0;
  double point_mass = 0.0;
  for (const auto& [value, fraction] : heavy_hitters) {
    if (value >= lo && value < hi) point_mass += fraction;
  }
  lo = std::max(lo, min);
  hi = std::min(hi, max + 1e-12);
  if (hi <= lo) return std::clamp(point_mass, 0.0, 1.0);
  if (max == min) {
    return std::clamp(point_mass + bucket_fractions[0], 0.0, 1.0);
  }
  const size_t n = bucket_fractions.size();
  const double width = (max - min) / static_cast<double>(n);
  // Only the buckets [lo, hi) overlaps can add a term. Their index range is
  // widened by one bucket on each side against rounding in the division;
  // the overlap test still decides, so the terms and their order are those
  // of a scan over every bucket.
  auto bucket_of = [&](double v) {
    double i = std::floor((v - min) / width);
    return i > 0.0 ? static_cast<size_t>(std::min(i, static_cast<double>(n)))
                   : size_t{0};
  };
  const size_t lo_bucket = bucket_of(lo);
  const size_t first = lo_bucket > 0 ? lo_bucket - 1 : 0;
  const size_t end = std::min(n, bucket_of(hi) + 2);
  double total = point_mass;
  for (size_t i = first; i < end; ++i) {
    double b_lo = min + width * static_cast<double>(i);
    double b_hi = b_lo + width;
    double overlap = std::min(hi, b_hi) - std::max(lo, b_lo);
    if (overlap > 0) total += bucket_fractions[i] * (overlap / width);
  }
  return std::clamp(total, 0.0, 1.0);
}

double KeyHistogram::Quantile(double q) const {
  if (bucket_fractions.empty() || max <= min) return min;
  q = std::clamp(q, 0.0, 1.0);
  // Walk the mixture of uniform-in-bucket mass and heavy-hitter point
  // masses in value order.
  std::vector<std::pair<double, double>> hitters = heavy_hitters;
  std::sort(hitters.begin(), hitters.end());
  const double width =
      (max - min) / static_cast<double>(bucket_fractions.size());
  double acc = 0.0;
  size_t hi_idx = 0;
  for (size_t i = 0; i < bucket_fractions.size(); ++i) {
    double b_lo = min + width * static_cast<double>(i);
    double b_hi = b_lo + width;
    // Point masses inside this bucket, in value order; the bucket's own
    // mass is spread uniformly between them.
    double cursor = b_lo;
    double bucket_mass = bucket_fractions[i];
    while (true) {
      double next_hitter =
          hi_idx < hitters.size() && hitters[hi_idx].first < b_hi
              ? hitters[hi_idx].first
              : b_hi;
      double seg = (next_hitter - cursor) / width;
      double seg_mass = bucket_mass * std::max(0.0, seg);
      if (acc + seg_mass >= q && seg_mass > 0) {
        double within = (q - acc) / seg_mass;
        return cursor + (next_hitter - cursor) * within;
      }
      acc += seg_mass;
      cursor = next_hitter;
      if (next_hitter >= b_hi) break;
      // Consume the point mass.
      acc += hitters[hi_idx].second;
      if (acc >= q) return hitters[hi_idx].first;
      ++hi_idx;
    }
  }
  return max;
}

std::string KeyHistogram::ToString() const {
  return StrFormat("hist(%s in [%g,%g], %zu buckets, distinct~%llu)",
                   field.c_str(), min, max, bucket_fractions.size(),
                   (unsigned long long)distinct);
}

const KeyHistogram* ProfileAnnotation::FindHistogram(
    const std::string& field) const {
  for (const auto& h : key_histograms) {
    if (h.field == field) return &h;
  }
  return nullptr;
}

std::string ProfileAnnotation::ToString() const {
  return StrFormat("profile{rec_bytes=%.1f, %zu histograms}",
                   avg_input_record_bytes, key_histograms.size());
}

}  // namespace stubby
