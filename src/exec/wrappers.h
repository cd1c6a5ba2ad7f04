// Wrapper machinery for executing stage pipelines inside a task — the
// simulator's counterpart of the wrapper MapReduce classes the paper's
// prototype adds to Pig (Section 6): vertical packing chains functions
// sequentially, and a kReduce stage performs a streaming group-by over its
// clustered input.

#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "mr/functions.h"
#include "workflow/graph.h"

namespace stubby {

/// Receives rows teed out of the middle of a pipeline.
class TeeSink {
 public:
  virtual ~TeeSink() = default;
  virtual void TeeEmit(const std::string& dataset_id, const Row& row) = 0;
};

/// What one stage of a running pipeline saw, in physical units: records
/// and serialized bytes in and out, and the groups a kReduce stage flushed
/// (0 for a kMap stage).
struct StageCounts {
  uint64_t records_in = 0;
  uint64_t bytes_in = 0;
  uint64_t records_out = 0;
  uint64_t bytes_out = 0;
  uint64_t groups = 0;

  void Add(const StageCounts& other) {
    records_in += other.records_in;
    bytes_in += other.bytes_in;
    records_out += other.records_out;
    bytes_out += other.bytes_out;
    groups += other.groups;
  }
};

/// Executes a stage pipeline over a stream of rows. Feed rows via Emit()
/// (the pipeline takes the row) or EmitBorrowed() (the caller keeps it);
/// call Finish() exactly once at end-of-stream (flushes group buffers and
/// stage Finish hooks). UDFs are cloned per PipelineRunner, giving each
/// task fresh state.
class PipelineRunner : public Emitter {
 public:
  /// Builds a runner; resolves kReduce grouping fields against the evolving
  /// stream schema. `out` receives final rows; `tee` (may be null when the
  /// pipeline has no tee stages) receives side-output rows. When
  /// `stage_counts` is non-null it is reset to one zeroed entry per stage,
  /// and each stage counts into its entry while the runner lives.
  static Result<std::unique_ptr<PipelineRunner>> Make(
      const std::vector<Stage>& stages, const Schema& input_schema,
      Emitter* out, TeeSink* tee,
      std::vector<StageCounts>* stage_counts = nullptr);

  ~PipelineRunner() override;

  /// Processes one input row through the pipeline.
  void Emit(Row row) override;

  /// Processes one input row the caller keeps, such as a stored partition's
  /// row that every subscribing pipeline of a shared scan reads. A leading
  /// map stage reads it in place (MapFn::Map takes a const reference); an
  /// empty pipeline or a leading grouped stage keeps rows, so it copies.
  void EmitBorrowed(const Row& row);

  /// Flushes buffered groups and runs Finish hooks, in stage order.
  void Finish();

  /// CPU units the stages spent so far (physical; the caller scales them).
  double cpu_units() const { return cpu_units_; }

 private:
  PipelineRunner() = default;

  struct Node;
  std::vector<std::unique_ptr<Node>> nodes_;
  Emitter* final_out_ = nullptr;
  double cpu_units_ = 0.0;
};

/// One reduce partition's rows in a map task's shuffle buffer.
struct ShuffleRange {
  int partition = 0;
  size_t begin = 0;  ///< the partition's rows are [begin, end) of the buffer
  size_t end = 0;
  uint64_t sorted_bytes = 0;  ///< serialized bytes before the combiner
  uint64_t pre_records = 0;   ///< records before the combiner
};

/// A map task's output for one shuffle branch, kept as a Hadoop map task
/// keeps it: one buffer sorted on (partition, sort key) and combined
/// partition by partition, with a table of its partitions' ranges.
struct ShuffledRows {
  std::vector<Row> rows;
  /// Every partition that received a row before the combiner, ascending.
  std::vector<ShuffleRange> ranges;
  uint64_t bytes = 0;  ///< serialized bytes before the combiner
};

/// The task side of the shuffle. Computes each row's partition among
/// `num_partitions`, stable-sorts `rows` on (partition, the partitioner's
/// sort fields), reads each row's serialized size once and, when `combiner`
/// is non-null, combines each partition's range on `group_indices`. Rows
/// reach each partition in the order they were emitted, so a partition's
/// range equals a stable sort of the rows bucketed to it.
ShuffledRows ShuffleMapOutput(std::vector<Row> rows,
                              const Partitioner& partitioner,
                              int num_partitions, const CombineFn* combiner,
                              const std::vector<size_t>& group_indices);

/// Applies a combine function to each range of `rows`, a range being sorted
/// on `group_indices`. One clone of `fn` serves every range: each run of
/// rows equal on `group_indices` within a range is moved into one reused
/// group vector and passed through it, so no run spans two ranges. Returns
/// the ranges' output rows in range order and points each range's
/// [begin, end) at its output rows.
std::vector<Row> RunCombiner(const CombineFn& fn, std::vector<Row> rows,
                             const std::vector<size_t>& group_indices,
                             std::vector<ShuffleRange>* ranges);

}  // namespace stubby
