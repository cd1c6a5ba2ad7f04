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

/// Counters accumulated while a pipeline runs (physical units; the caller
/// scales them).
struct PipelineCounters {
  double cpu_units = 0.0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
};

/// Executes a stage pipeline over a stream of rows. Feed rows via Emit();
/// call Finish() exactly once at end-of-stream (flushes group buffers and
/// stage Finish hooks). UDFs are cloned per PipelineRunner, giving each
/// task fresh state.
class PipelineRunner : public Emitter {
 public:
  /// Builds a runner; resolves kReduce grouping fields against the evolving
  /// stream schema. `out` receives final rows; `tee` (may be null when the
  /// pipeline has no tee stages) receives side-output rows.
  static Result<std::unique_ptr<PipelineRunner>> Make(
      const std::vector<Stage>& stages, const Schema& input_schema,
      Emitter* out, TeeSink* tee);

  ~PipelineRunner() override;

  /// Processes one input row through the pipeline.
  void Emit(Row row) override;

  /// Flushes buffered groups and runs Finish hooks, in stage order.
  void Finish();

  const PipelineCounters& counters() const { return counters_; }

 private:
  PipelineRunner() = default;

  struct Node;
  std::vector<std::unique_ptr<Node>> nodes_;
  Emitter* final_out_ = nullptr;
  PipelineCounters counters_;
};

/// Applies a combine function to a bucket of rows that is already sorted on
/// `group_indices`: consecutive equal-key runs are each passed through
/// `fn`. Returns the combined rows (still sorted by construction of fn's
/// contract). `cpu_units` accumulates records * fn weight.
std::vector<Row> RunCombiner(const CombineFn& fn,
                             const std::vector<Row>& sorted_rows,
                             const std::vector<size_t>& group_indices,
                             double* cpu_units);

}  // namespace stubby
