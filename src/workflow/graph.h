// Plan graph vertices (Section 2.1): MapReduce jobs and datasets connected
// by producer-consumer edges.
//
// The executable form of a job's program is a set of *branches* (parallel
// function pipelines — more than one only after horizontal packing), each a
// sequence of *stages* (map or streaming-grouped reduce functions — more
// than one per side only after vertical packing). This representation makes
// every packing transformation a pure structural rewrite: stages move
// between jobs and carry their profiled statistics with them.

#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dfs/layout.h"
#include "mr/cluster.h"
#include "mr/functions.h"
#include "mr/job_config.h"
#include "mr/partitioner.h"
#include "workflow/annotations.h"

namespace stubby {

class StoredDataset;

/// One function application in a pipeline. A kReduce stage performs a
/// streaming group-by on `group_fields`; its input stream must arrive
/// clustered on those fields (guaranteed by the producing shuffle or by the
/// layout preconditions the transformations check).
struct Stage {
  enum class Kind { kMap, kReduce };

  Kind kind = Kind::kMap;
  std::shared_ptr<MapFn> map_fn;        ///< set when kind == kMap
  std::shared_ptr<ReduceFn> reduce_fn;  ///< set when kind == kReduce
  std::vector<std::string> group_fields;  ///< kReduce: grouping fields

  /// Measured statistics of this function (from profile annotations); absent
  /// when no profile is available.
  std::optional<StageStats> stats;

  /// If non-empty, rows flowing out of this stage are also materialized to
  /// this dataset id (used when inter-job packing must keep producing the
  /// original intermediate dataset for other consumers).
  std::string tee_dataset;

  /// Row type produced by this stage.
  const Schema& output_schema() const {
    return kind == Kind::kMap ? map_fn->output_schema()
                              : reduce_fn->output_schema();
  }

  std::string name() const {
    return kind == Kind::kMap ? map_fn->name() : reduce_fn->name();
  }

  static Stage Map(std::shared_ptr<MapFn> fn,
                   std::optional<StageStats> stats = std::nullopt);
  static Stage Reduce(std::shared_ptr<ReduceFn> fn,
                      std::vector<std::string> group_fields,
                      std::optional<StageStats> stats = std::nullopt);
};

/// One input dataset of a branch together with the map-side stages applied
/// to rows from this input (per-input pipelines support multi-input joins,
/// as with Hadoop's MultipleInputs).
struct BranchInput {
  std::string dataset_id;

  /// Map-side pipeline for rows of this input. May contain kReduce stages
  /// after intra-job vertical packing (their grouping is then guaranteed by
  /// the input dataset's layout).
  std::vector<Stage> map_stages;

  /// Partition pruning: if non-empty, only these partitions of the dataset
  /// are read (set by the partition function transformation).
  std::vector<int> prune_partitions;

  /// Estimated fraction of the dataset's records surviving the pruning
  /// (1.0 = no pruning). Set by the partition function transformation from
  /// the producer's key histogram; used by the what-if engine only — the
  /// executor reads the physically selected partitions.
  double prune_fraction = 1.0;

  /// Partition-aligned read: each map task consumes exactly one partition of
  /// the input, whole and in stored order (postcondition 2 of intra-job
  /// vertical packing). When false, the input is split by size.
  bool aligned = false;

  /// Schema of the rows leaving the map side of this input.
  Result<Schema> MapOutputSchema(const Schema& input_schema) const;
};

/// Bloom predicate transfer attached to a multi-input join branch
/// (optimizer/bloom.h): before the map phase, the executor scans the
/// `build_input`'s map output and inserts the `key_fields` hashes into a
/// deterministic blocked Bloom filter; each `probe_inputs` member carries a
/// BloomProbeMapFn stage (appended to its map_stages) that the executor
/// binds to the built filter, dropping non-joining rows before the
/// shuffle. The spec is pure plan data — serialized, digested, validated —
/// while the filter itself is per-run executor state.
struct BloomTransferSpec {
  /// Index into Branch::inputs of the (smaller) filter-building side.
  size_t build_input = 0;

  /// Indices of the inputs whose probe stage this spec binds.
  std::vector<size_t> probe_inputs;

  /// Join-key fields, named in the branch's map_output_schema (hashes are
  /// computed on the *map output*, so build and probe sides agree).
  std::vector<std::string> key_fields;

  /// Filter layout: 2^bits_log2 bits, num_hashes bits per key, fixed seed.
  int bits_log2 = 20;
  int num_hashes = 6;

  /// Estimated fraction of probe-side rows passing the filter (what-if
  /// only; the executor observes the real fraction).
  double est_pass_fraction = 1.0;
};

/// One parallel function pipeline of a job. A plain MapReduce job is one
/// branch; horizontal packing merges the branches of several jobs into one
/// job.
struct Branch {
  /// Tag identifying the branch — the id of the original job it came from.
  /// Used by the tagged shuffle to route rows to the right reduce pipeline.
  std::string tag;

  std::vector<BranchInput> inputs;

  /// Co-aligned merged stages: run map-side over the *merged* stream of all
  /// inputs (after each input's own map_stages), one task per co-aligned
  /// partition index. Non-empty only when every input is aligned and the
  /// inputs are co-partitioned — the structural form intra-job vertical
  /// packing produces (the moved reduce function must see rows of a group
  /// from all inputs together). The merged stream is ordered by
  /// `merge_sort_fields` before these stages run.
  std::vector<Stage> merged_map_stages;
  std::vector<std::string> merge_sort_fields;

  /// Row type entering the merged stages (every input's map_stages must
  /// yield it). Meaningful only when merged_map_stages is non-empty.
  Schema merge_schema;

  /// Row type flowing from the map side into the shuffle (or, for map-only
  /// branches, into the output dataset).
  Schema map_output_schema;

  /// Reduce-side pipeline; empty makes this branch map-only.
  std::vector<Stage> reduce_stages;

  /// Partition function between this branch's map and reduce sides.
  PartitionSpec partition;

  /// Optional combine function applied to map-side spills when the job
  /// config enables it.
  std::shared_ptr<CombineFn> combiner;

  /// Output dataset id written by the end of the pipeline.
  std::string output_dataset;

  /// For map-only merge-mode branches (intra-job vertical packing output):
  /// the partitioning that each co-aligned task's output inherits from its
  /// input partition — task t reads partition t and writes partition t, so
  /// the output stays partitioned/ordered. Consulted by DeriveOutputLayout.
  std::optional<PartitionSpec> preserved_partition;

  /// Set by the Bloom predicate-transfer transformation.
  std::optional<BloomTransferSpec> bloom;

  /// Annotations of the (original or adjusted) job this branch represents.
  JobAnnotations annotations;

  bool map_only() const { return reduce_stages.empty(); }

  /// True when the branch uses co-aligned merged map-side stages.
  bool merge_mode() const { return !merged_map_stages.empty(); }

  /// Grouping fields required by the first reduce stage (empty if map-only).
  std::vector<std::string> GroupFields() const;

  /// Row type of the branch's final output.
  Result<Schema> OutputSchema(const Schema& input_schema) const;
};

/// Conditions imposed on a job by prior transformations or by the workflow
/// generator; later transformations must keep satisfying them (Sections
/// 3.4, 3.5).
struct JobConditions {
  /// Partition spec may not be altered (a consumer's packing depends on it,
  /// or the program semantically requires it, e.g. a sort job).
  bool partition_frozen = false;

  /// Number of reduce tasks is fixed (e.g. single-task top-K computations,
  /// or alignment with a consumer's map tasks).
  std::optional<int> num_reduce_fixed;

  /// Conditions-ledger record of an applied Bloom predicate transfer: the
  /// branch's probe pre-filters may drop only rows whose join key has no
  /// build-side partner, and the filter admits false positives but never
  /// false negatives — so every dropped row belongs to a group the inner
  /// join discards, and terminal outputs are bit-identical with the
  /// transfer on or off.
  bool bloom_transfer = false;
};

/// A MapReduce job vertex: J = <p, c, a> where p is the branch set, c the
/// configuration, and a the per-branch annotations.
struct JobVertex {
  std::string id;
  std::vector<Branch> branches;
  JobConfig config;
  JobConditions conditions;

  bool map_only() const;
  bool horizontally_packed() const { return branches.size() > 1; }

  /// All distinct input dataset ids across branches.
  std::vector<std::string> InputDatasets() const;

  /// All output dataset ids (branch outputs + stage tees).
  std::vector<std::string> OutputDatasets() const;

  /// The single branch of an unpacked job; error if horizontally packed.
  Result<const Branch*> SoleBranch() const;

  /// Effective number of reduce tasks after all constraints (range
  /// partitioning and conditions override the config).
  int EffectiveReduceTasks() const { return EffectiveReduceTasks(config); }

  /// EffectiveReduceTasks with `config` in place of the job's own.
  int EffectiveReduceTasks(const JobConfig& config) const;

  /// The reduce-task count the conditions or explicit range splits fix, if
  /// any: then no configuration changes it (0 for map-only jobs).
  std::optional<int> PinnedReduceTasks() const;
};

/// A dataset vertex: D = <d, l, a>.
struct DatasetVertex {
  std::string id;
  Schema schema;  ///< structural row type (always known to the executor)
  Layout layout;  ///< planned physical layout

  /// Base input of the workflow (exists in the DFS before execution).
  bool is_base_input = false;

  /// Terminal output that must survive (never eliminated by packing).
  bool is_workflow_output = false;

  /// Non-empty when this vertex is served from the cross-workflow
  /// ResultStore instead of being computed: the stored-result id inside the
  /// store whose snapshot must be staged into the DFS under `id` before
  /// execution. Such vertices are base inputs of the rewritten plan.
  std::string materialized_from;

  /// What the *optimizer* knows about this dataset (may be less than the
  /// structural truth above — the information spectrum).
  DatasetAnnotation annotation;
};

/// Map tasks are formed per *input group*: branch inputs of one job that
/// read the same dataset the same way share a single physical scan (the
/// essence of horizontal packing's read sharing). Each group's map tasks run
/// the pipelines of all subscribing branch inputs.
struct InputGroup {
  std::string dataset_id;
  bool aligned = false;
  std::vector<int> prune_partitions;
  double prune_fraction = 1.0;
  /// (branch index, input index) pairs subscribing to this scan.
  std::vector<std::pair<size_t, size_t>> subscribers;
};

/// Canonical form of a prune-partition list: sorted, deduplicated. Pruning
/// selects a *set* of partitions, so `{2,1}` and `{1,2,2}` describe the same
/// physical read; every consumer (scan grouping, the executor, reuse keys)
/// compares and reads prune lists in this form.
std::vector<int> CanonicalPrunePartitions(const std::vector<int>& prune);

/// Physical partitions of `ds` a branch input with prune list `prune`
/// reads, in read order: every partition when `prune` is empty, otherwise
/// CanonicalPrunePartitions(prune). An entry naming a partition the dataset
/// does not have means the plan and the stored data disagree; skipping it
/// would under-read the input, so it is InvalidArgument. The executor reads
/// pruned inputs through this (the profiler observes the executor's run).
Result<std::vector<int>> SelectedPartitions(const StoredDataset& ds,
                                            const std::vector<int>& prune);

/// Groups the job's branch inputs by (dataset, aligned, prune set). Shared
/// by the executor and the what-if engine so both account scans identically.
/// Group prune lists are canonical (sorted, deduplicated).
std::vector<InputGroup> GroupBranchInputs(const JobVertex& job);

/// Derives the layout of the dataset produced by `branch` of a job with
/// configuration `config`: partitioning/order information is retained only
/// if the relevant fields survive into the output schema under identical
/// names. Shared by the executor, the cost model, and the transformations.
Layout DeriveOutputLayout(const Branch& branch, const JobConfig& config,
                          const Schema& output_schema);

}  // namespace stubby
