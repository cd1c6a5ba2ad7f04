// Annotations (Section 2.2): the generic mechanism by which workflow
// generators convey information to Stubby. Three categories:
//   - dataset annotations: physical design of datasets (partitioning,
//     ordering, compression, size);
//   - program annotations: schema (K1..K3 / V1..V3 field composition) and
//     filter (consumer uses only a subset of its producer's output);
//   - profile annotations: dataflow and cost statistics of program execution
//     (from the profiler), used by the what-if engine.
//
// Every annotation is optional. Stubby only enumerates the subspace of the
// plan space whose transformations can be checked with the annotations that
// are present (the information spectrum).

#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dfs/layout.h"
#include "mr/schema.h"

namespace stubby {

/// Known information about a dataset (D.a of D = <d, l, a>).
struct DatasetAnnotation {
  /// Field composition of the dataset's rows, if known.
  std::optional<Schema> schema;

  /// Known physical layout (partitioning / ordering / compression). For base
  /// inputs this is what the loading pipeline recorded, e.g.
  /// D01.dataset = {schema=<C,O,...>, partition=<hash(C)>}.
  std::optional<Layout> layout;

  /// Known size, if any.
  std::optional<uint64_t> num_records;
  std::optional<uint64_t> bytes;

  /// Known partition count (for partitioned layouts).
  std::optional<int> num_partitions;
};

/// Schema annotation of one MapReduce program: the composition of the key
/// and value types K1-K3, V1-V3 as field-name sets. Identical field names
/// across functions indicate data that flows unchanged (Section 2.2).
struct SchemaAnnotation {
  std::optional<FieldSet> k1, v1;
  std::optional<FieldSet> k2, v2;
  std::optional<FieldSet> k3, v3;

  std::string ToString() const;
};

/// Filter annotation: the program uses as input only rows whose `field`
/// value lies in [lo, hi), e.g. J6.filter = {0 <= O < 100}.
struct FilterAnnotation {
  std::string field;
  double lo = 0.0;
  double hi = 0.0;

  bool Contains(double v) const { return v >= lo && v < hi; }
  std::string ToString() const;
};

/// Per-stage dataflow and cost statistics — the granular form of the
/// paper's profile annotations. The profiler measures these per function;
/// packing transformations move stages together with their stats, which is
/// exactly the paper's "adjustment" (new selectivity = product, new CPU
/// cost = sum) realized structurally.
struct StageStats {
  /// Output records per input record of the stage (record selectivity).
  double record_selectivity = 1.0;

  /// Output bytes per input byte.
  double byte_selectivity = 1.0;

  /// Relative CPU cost units per input record.
  double cpu_per_record = 1.0;

  /// For reduce stages: distinct groups per input record (1/avg group size).
  double groups_per_record = 1.0;

  std::string ToString() const;
};

/// Approximate distribution of a (numeric) field, used to choose range
/// split points, estimate partition-pruning savings, and estimate skew.
struct KeyHistogram {
  std::string field;
  double min = 0.0;
  double max = 0.0;
  /// Fraction of records per equi-width bucket. Together with the heavy
  /// hitters below, fractions sum to ~1 (hitters are point masses excluded
  /// from the buckets).
  std::vector<double> bucket_fractions;
  /// Estimated number of distinct values.
  uint64_t distinct = 0;
  /// Fraction of records carrying the single most frequent value (heavy-
  /// hitter share; drives reduce-side skew estimates for hash partitioning).
  double max_key_fraction = 0.0;
  /// The most frequent values as (value, record fraction) point masses,
  /// descending by fraction. Range estimates treat them exactly, which is
  /// what makes range-partition skew predictions usable on skewed keys.
  std::vector<std::pair<double, double>> heavy_hitters;

  /// Fraction of records with value in [lo, hi).
  double FractionInRange(double lo, double hi) const;

  /// Value v such that approximately `q` of the records are below v.
  double Quantile(double q) const;

  std::string ToString() const;
};

/// Job-level profile annotation: execution statistics that are not tied to
/// a single stage.
struct ProfileAnnotation {
  /// Average serialized input record size in bytes.
  double avg_input_record_bytes = 100.0;

  /// Histograms of map-output key fields (by field name).
  std::vector<KeyHistogram> key_histograms;

  /// CPU cost units per record the combine function processes, if the
  /// program has a combiner.
  double combine_cpu_per_record = 0.3;

  /// Number of distinct K2 groups in the map output (drives the analytic
  /// combine-effectiveness model: a map task with n records over G groups
  /// combines down to about G*(1-exp(-n/G)) records).
  double k2_distinct_groups = 0.0;

  /// Fraction of map-output records carrying the most frequent K2 group
  /// key (reduce-skew heavy hitter).
  double k2_max_group_fraction = 0.0;

  const KeyHistogram* FindHistogram(const std::string& field) const;

  std::string ToString() const;
};

/// Join annotation: the branch's reduce is an inner join over its inputs —
/// a group contributes to the output only when it holds at least one row
/// from *every* input. Rows of a `filterable_inputs` member whose key has
/// no partner are therefore semantically dead: dropping them before the
/// shuffle cannot change any output (the precondition of the Bloom
/// predicate-transfer transformation).
struct JoinAnnotation {
  /// Branch-input indices whose non-joining rows may be dropped. Inputs not
  /// listed (e.g. an outer side) are never pre-filtered.
  std::vector<size_t> filterable_inputs;

  std::string ToString() const;
};

/// All annotations of one (original or packed) job.
struct JobAnnotations {
  std::optional<SchemaAnnotation> schema;
  std::optional<FilterAnnotation> filter;
  std::optional<JoinAnnotation> join;
  std::optional<ProfileAnnotation> profile;
};

}  // namespace stubby
