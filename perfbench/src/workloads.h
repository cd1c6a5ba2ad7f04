// The three benchmark workloads. Each builds its inputs from the run's seed,
// sets up, measures whole passes until the run's seconds are spent, checks
// every output, and fills `out` with its end-to-end and per-layer metrics.

#pragma once

#include "common/threading.h"
#include "cost/cost_cache.h"
#include "cost/dataflow.h"
#include "harness.h"

namespace perfbench {

/// Sets the cost.* counters and ratios of one pass's optimizer runs;
/// `optimize_s` is the pass's summed Optimize wall time.
void ReportCosting(const stubby::CostInstrumentation& c, double optimize_s,
                   Results* out);

/// Logical dataflow of one pass's executions (exec.* counts).
struct DataflowTotals {
  double map_input_records = 0;
  double shuffle_bytes = 0;  ///< reduce input bytes
  double output_bytes = 0;
  double map_tasks = 0;
  double reduce_tasks = 0;

  void Add(const stubby::WorkflowDataflow& flow);
  void Report(Results* out) const;
};

/// Profile -> optimize -> execute of each Table 1 workflow, one after another.
void RunTable1Loop(const RunConfig& cfg, stubby::ThreadPool* pool,
                   Results* out);

/// Execution only: the Stubby-optimized Table 1 plans at larger inputs.
void RunTable1Exec(const RunConfig& cfg, stubby::ThreadPool* pool,
                   Results* out);

/// A Zipf-skewed multi-tenant trace replayed through stubbyd.
void RunStubbydZipf(const RunConfig& cfg, stubby::ThreadPool* pool,
                    Results* out);

}  // namespace perfbench
