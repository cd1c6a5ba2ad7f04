#include "exec/job_runner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "common/threading.h"
#include "exec/wrappers.h"
#include "mr/bloom_filter.h"

namespace stubby {

namespace {

constexpr double kMB = 1024.0 * 1024.0;

uint64_t RowsBytes(const std::vector<Row>& rows) {
  uint64_t b = 0;
  for (const Row& r : rows) b += r.SerializedSize();
  return b;
}

/// Sorts `runs` on value and folds runs of equal values into one.
void FoldRuns(ValueRuns<double>* runs) {
  std::sort(runs->begin(), runs->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t n = 0;
  for (const auto& run : *runs) {
    if (n > 0 && (*runs)[n - 1].first == run.first) {
      (*runs)[n - 1].second += run.second;
    } else {
      (*runs)[n++] = run;
    }
  }
  runs->resize(n);
}

/// Records the values of each of the `width` fields of a task's map output
/// into `seen`, one run per row (FoldRuns folds them once the merge is
/// done); nullopt for a field some row carries a string in.
void ObserveFields(const std::vector<Row>& rows, size_t width,
                   BranchObservation* seen) {
  seen->field_runs.assign(width, std::nullopt);
  for (size_t f = 0; f < width; ++f) {
    ValueRuns<double> runs;
    runs.reserve(rows.size());
    for (const Row& row : rows) {
      if (row[f].is_string()) break;
      runs.emplace_back(row[f].AsDouble(), 1);
    }
    if (runs.size() == rows.size()) seen->field_runs[f] = std::move(runs);
  }
}

void AddCounts(std::vector<StageCounts>* into,
               const std::vector<StageCounts>& piece) {
  for (size_t i = 0; i < piece.size(); ++i) (*into)[i].Add(piece[i]);
}

/// Adds what one task piece observed of a branch into the run's
/// observation: counts add, field runs append (FoldRuns sorts them once the
/// merge is done), and a field stays numeric only while no piece saw a
/// string in it.
void AddObservation(BranchObservation* into, const BranchObservation& piece) {
  for (size_t ii = 0; ii < piece.inputs.size(); ++ii) {
    into->inputs[ii].records += piece.inputs[ii].records;
    into->inputs[ii].bytes += piece.inputs[ii].bytes;
    AddCounts(&into->inputs[ii].map_stages, piece.inputs[ii].map_stages);
  }
  AddCounts(&into->merged_map_stages, piece.merged_map_stages);
  AddCounts(&into->reduce_stages, piece.reduce_stages);
  for (size_t f = 0; f < piece.field_runs.size(); ++f) {
    std::optional<ValueRuns<double>>& runs = into->field_runs[f];
    if (!piece.field_runs[f]) {
      runs.reset();
    } else if (runs) {
      runs->insert(runs->end(), piece.field_runs[f]->begin(),
                   piece.field_runs[f]->end());
    }
  }
}

/// Tee output of one task: one finished partition per teed dataset.
using TeePieces = std::map<std::string, PartitionData>;

/// Collects tee rows during one task; Take() hands them over per dataset
/// (so per-task partition boundaries are kept), sized inside the task.
class TaskTeeSink : public TeeSink {
 public:
  void TeeEmit(const std::string& dataset_id, const Row& row) override {
    rows_[dataset_id].push_back(row);
  }

  TeePieces Take() {
    TeePieces pieces;
    for (auto& [id, rows] : rows_) {
      pieces.emplace(id, PartitionData(std::move(rows)));
    }
    rows_.clear();
    return pieces;
  }

 private:
  std::map<std::string, std::vector<Row>> rows_;
};

/// Accumulates a dataset under construction (per-partition payloads +
/// scaled accounting so the stored dataset gets the right logical scale).
struct DatasetBuilder {
  std::vector<PartitionData> partitions;
  double scaled_records = 0.0;
  double scaled_bytes = 0.0;
  uint64_t physical_bytes = 0;

  void Add(PartitionData pd, double scale) {
    Account(pd, scale);
    partitions.push_back(std::move(pd));
  }

  /// Places reduce task `r`'s piece at partition index `r`. Each branch
  /// owns its builder and the reduce merge visits each task once, so one
  /// piece lands per index.
  void AddTo(size_t r, PartitionData pd, double scale) {
    if (partitions.size() <= r) partitions.resize(r + 1);
    Account(pd, scale);
    partitions[r] = std::move(pd);
  }

  double LogicalScale() const {
    return physical_bytes > 0
               ? scaled_bytes / static_cast<double>(physical_bytes)
               : 1.0;
  }

 private:
  void Account(const PartitionData& pd, double scale) {
    uint64_t b = pd.raw_bytes();
    scaled_records += static_cast<double>(pd.num_rows()) * scale;
    scaled_bytes += static_cast<double>(b) * scale;
    physical_bytes += b;
  }
};

/// One sorted (and possibly combined) reduce bucket produced by a map task.
struct ShuffleBucket {
  size_t r = 0;
  uint64_t sorted_bytes = 0;  ///< pre-combine, post-sort
  uint64_t pre_records = 0;   ///< pre-combine
  std::vector<Row> rows;      ///< after the (physical) combiner
};

/// Partitioned/sorted/combined map output of one task for one branch. Pure
/// task-side data: all dataflow accounting happens when it is merged, in
/// task order.
struct ShuffledOutput {
  uint64_t out_bytes = 0;
  size_t out_records = 0;
  /// One K2 group hash per map-output row, in output order; only when the
  /// branch's combiner runs or the run is observed (nothing else reads them).
  std::vector<uint64_t> group_hashes;
  std::vector<ShuffleBucket> buckets;  ///< ascending r, non-empty only
};

/// One task's map output for one branch, and what an observed run saw of
/// the branch in that task.
struct MapOutput {
  PartitionData out;           ///< map-only branches
  ShuffledOutput shuffled;     ///< shuffle branches
  BranchObservation observed;  ///< observed runs only
};

}  // namespace

Result<PartitionSpec> ResolvePartitionSpec(const Branch& branch, int R,
                                           const Dfs& dfs) {
  PartitionSpec spec = branch.partition;
  if (spec.type != PartitionType::kRange || !spec.split_points.empty() ||
      spec.split_points_from.empty()) {
    return spec;
  }
  STUBBY_ASSIGN_OR_RETURN(DatasetPtr ds, dfs.Get(spec.split_points_from));
  std::vector<Row> candidates = ds->AllRows();
  std::sort(candidates.begin(), candidates.end());
  // Duplicate candidates would become duplicate split points, i.e. ranges
  // that can never receive a record; only distinct boundaries qualify.
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  int want = std::max(0, R - 1);
  if (static_cast<int>(candidates.size()) <= want) {
    spec.split_points = std::move(candidates);
  } else {
    std::vector<Row> splits;
    splits.reserve(static_cast<size_t>(want));
    for (int i = 1; i <= want; ++i) {
      size_t idx = static_cast<size_t>(
          static_cast<double>(i) * static_cast<double>(candidates.size()) /
          (want + 1));
      idx = std::min(idx, candidates.size() - 1);
      splits.push_back(candidates[idx]);
    }
    spec.split_points = std::move(splits);
  }
  return spec;
}

// Tasks (map chunks, merge-mode tasks, reduce partitions) are pure: they
// run pipelines, partition/sort/combine, and return unaggregated
// per-task pieces. All mutation of the dataflow record, the branch
// accumulators, and the tee builders happens in a serial merge that walks
// the pieces in task order — replaying the exact accumulation sequence of
// a serial run. Results are therefore bit-identical (including
// floating-point sums) at any thread count.
Result<JobDataflow> JobRunner::Run(
    const Plan& plan, const JobVertex& job, Dfs* dfs,
    std::vector<BranchObservation>* observation) const {
  JobDataflow df;
  df.job_id = job.id;
  const bool map_only = job.map_only();
  const int R = map_only ? 0 : job.EffectiveReduceTasks();
  df.num_reduce_tasks = R;
  df.output_compressed = job.config.compress_output;

  const size_t nb = job.branches.size();
  const bool observe = observation != nullptr;
  if (observe) {
    observation->assign(nb, {});
    for (size_t bi = 0; bi < nb; ++bi) {
      const Branch& b = job.branches[bi];
      BranchObservation& seen = (*observation)[bi];
      seen.inputs.resize(b.inputs.size());
      for (size_t ii = 0; ii < b.inputs.size(); ++ii) {
        seen.inputs[ii].map_stages.resize(b.inputs[ii].map_stages.size());
      }
      seen.merged_map_stages.resize(b.merged_map_stages.size());
      seen.reduce_stages.resize(b.reduce_stages.size());
      seen.field_runs.assign(b.map_output_schema.size(), ValueRuns<double>{});
    }
  }

  // Per-branch execution state.
  struct BranchState {
    PartitionSpec resolved_partition;
    std::vector<size_t> partition_sort_indices;  // in map-output schema
    std::vector<size_t> group_indices;           // combiner grouping
    std::optional<Partitioner> partitioner;
    // reduce_buckets[r]: the pieces destined for reduce task r, one per
    // map task in task order (reduce task r concatenates them), plus
    // scaled accounting (pre-combine) for skew measurement.
    std::vector<std::vector<std::vector<Row>>> reduce_buckets;
    std::vector<double> bucket_scaled_bytes;      // pre-combine, logical
    std::vector<double> bucket_scaled_records;    // pre-combine, logical
    std::vector<uint64_t> bucket_physical_records;       // pre-combine
    std::vector<uint64_t> bucket_physical_post_records;  // after combiner
    // Combine-effectiveness model inputs. group_hashes: every shuffle
    // piece's K2 group hashes, appended in task order and sorted once after
    // the map phase; its count of distinct values is the model's G (an
    // observed run keeps its runs). task_logical_records: the logical
    // record count each map task contributed.
    std::vector<uint64_t> group_hashes;
    size_t distinct_groups = 0;
    std::vector<double> task_logical_records;
    double raw_scaled_records = 0.0;  // pre-combine map output (logical)
    double raw_scaled_bytes = 0.0;
    double combine_ratio = 1.0;  // combined records / raw records
    DatasetBuilder output;
  };
  std::vector<BranchState> bstate(nb);

  for (size_t bi = 0; bi < nb; ++bi) {
    const Branch& b = job.branches[bi];
    if (b.map_only()) continue;
    BranchState& st = bstate[bi];
    STUBBY_ASSIGN_OR_RETURN(st.resolved_partition,
                            ResolvePartitionSpec(b, R, *dfs));
    STUBBY_ASSIGN_OR_RETURN(
        Partitioner partitioner,
        Partitioner::Make(st.resolved_partition, b.map_output_schema, R));
    st.partitioner = std::move(partitioner);
    st.partition_sort_indices = st.partitioner->sort_indices();
    std::vector<std::string> group = b.GroupFields();
    STUBBY_ASSIGN_OR_RETURN(st.group_indices,
                            b.map_output_schema.IndicesOf(group));
    st.reduce_buckets.assign(static_cast<size_t>(R), {});
    st.bucket_scaled_bytes.assign(static_cast<size_t>(R), 0.0);
    st.bucket_scaled_records.assign(static_cast<size_t>(R), 0.0);
    st.bucket_physical_records.assign(static_cast<size_t>(R), 0);
    st.bucket_physical_post_records.assign(static_cast<size_t>(R), 0);
  }

  std::map<std::string, DatasetBuilder> tee_builders;
  std::map<std::string, Schema> tee_schemas;
  for (const Branch& b : job.branches) {
    for (const BranchInput& in : b.inputs) {
      for (const Stage& s : in.map_stages) {
        if (!s.tee_dataset.empty()) {
          tee_schemas[s.tee_dataset] = s.output_schema();
        }
      }
    }
    for (const Stage& s : b.merged_map_stages) {
      if (!s.tee_dataset.empty()) tee_schemas[s.tee_dataset] = s.output_schema();
    }
    for (const Stage& s : b.reduce_stages) {
      if (!s.tee_dataset.empty()) tee_schemas[s.tee_dataset] = s.output_schema();
    }
  }

  auto drain_tee = [&](TeePieces& tee, double scale) {
    for (auto& [id, pd] : tee) {
      df.tee_bytes += static_cast<uint64_t>(
          static_cast<double>(pd.raw_bytes()) * scale);
      tee_builders[id].Add(std::move(pd), scale);
    }
    tee.clear();
  };

  // Task side of the shuffle: partition one map task's output for branch
  // `bi`, sort each bucket, and run the combiner physically (so the reduce
  // functions see combined rows). Reads branch state, never writes it.
  auto compute_shuffle = [&](size_t bi,
                             std::vector<Row> rows) -> ShuffledOutput {
    const Branch& b = job.branches[bi];
    const BranchState& st = bstate[bi];
    const bool combine = job.config.use_combiner && b.combiner != nullptr;
    ShuffledOutput so;
    so.out_bytes = RowsBytes(rows);
    so.out_records = rows.size();
    if (combine || observe) {
      so.group_hashes.reserve(rows.size());
      for (const Row& row : rows) {
        so.group_hashes.push_back(HashOnFields(row, st.group_indices));
      }
    }
    std::vector<std::vector<Row>> buckets(static_cast<size_t>(R));
    for (Row& row : rows) {
      int r = st.partitioner->PartitionOf(row, R);
      buckets[static_cast<size_t>(r)].push_back(std::move(row));
    }
    for (size_t r = 0; r < buckets.size(); ++r) {
      auto& bucket = buckets[r];
      if (bucket.empty()) continue;
      StableSortOnFields(&bucket, st.partition_sort_indices);
      ShuffleBucket sb;
      sb.r = r;
      sb.sorted_bytes = RowsBytes(bucket);
      sb.pre_records = bucket.size();
      if (combine) {
        double combine_cpu = 0.0;
        bucket = RunCombiner(*b.combiner, std::move(bucket), st.group_indices,
                             &combine_cpu);
      }
      sb.rows = std::move(bucket);
      so.buckets.push_back(std::move(sb));
    }
    return so;
  };

  // Merge side of the shuffle: stash the buckets into the branch state and
  // account shuffle volume pre-combine — combine effectiveness at logical
  // scale is modeled analytically after the map phase, because the
  // physical sample cannot exhibit logical-scale duplicate density.
  auto merge_shuffle = [&](size_t bi, ShuffledOutput so, double scale) {
    BranchState& st = bstate[bi];
    double scaled_records = static_cast<double>(so.out_records) * scale;
    double scaled_bytes = static_cast<double>(so.out_bytes) * scale;
    df.map_output_records += static_cast<uint64_t>(scaled_records);
    df.map_output_bytes += static_cast<uint64_t>(scaled_bytes);
    st.raw_scaled_records += scaled_records;
    st.raw_scaled_bytes += scaled_bytes;
    st.task_logical_records.push_back(scaled_records);
    st.group_hashes.insert(st.group_hashes.end(), so.group_hashes.begin(),
                           so.group_hashes.end());
    for (ShuffleBucket& sb : so.buckets) {
      st.bucket_scaled_bytes[sb.r] +=
          static_cast<double>(sb.sorted_bytes) * scale;
      st.bucket_scaled_records[sb.r] +=
          static_cast<double>(sb.pre_records) * scale;
      st.bucket_physical_records[sb.r] += sb.pre_records;
      st.bucket_physical_post_records[sb.r] += sb.rows.size();
      st.reduce_buckets[sb.r].push_back(std::move(sb.rows));
    }
  };

  // Task side of a branch's map output: the output partition or the
  // shuffle, and an observed run's field runs of the pre-combine rows.
  auto finish_map = [&](size_t bi, std::vector<Row> rows, MapOutput* mo) {
    const Branch& b = job.branches[bi];
    if (observe && !rows.empty()) {
      ObserveFields(rows, b.map_output_schema.size(), &mo->observed);
    }
    if (b.map_only()) {
      mo->out = PartitionData(std::move(rows));
    } else {
      mo->shuffled = compute_shuffle(bi, std::move(rows));
    }
  };
  // Merge side, in task order. An observed run also records a shuffle
  // piece's pre-combine records and bytes.
  auto merge_map = [&](size_t bi, MapOutput& mo, double scale) {
    if (observe) {
      BranchObservation& seen = (*observation)[bi];
      AddObservation(&seen, mo.observed);
      seen.map_output_records += mo.shuffled.out_records;
      seen.map_output_bytes += mo.shuffled.out_bytes;
    }
    if (job.branches[bi].map_only()) {
      bstate[bi].output.Add(std::move(mo.out), scale);
    } else {
      merge_shuffle(bi, std::move(mo.shuffled), scale);
    }
  };
  // Where a task piece that read `records` rows (`bytes` bytes) of input
  // `ii` counts that input's map pipeline; null in an unobserved run.
  auto observe_input = [&](BranchObservation* seen, size_t ii,
                           uint64_t records,
                           uint64_t bytes) -> std::vector<StageCounts>* {
    if (!observe) return nullptr;
    if (seen->inputs.size() <= ii) seen->inputs.resize(ii + 1);
    seen->inputs[ii].records += records;
    seen->inputs[ii].bytes += bytes;
    return &seen->inputs[ii].map_stages;
  };

  // Accounts one map-task input chunk read from dataset `ds`.
  auto account_input = [&](const StoredDataset& ds, uint64_t chunk_bytes,
                           uint64_t chunk_rows) -> uint64_t {
    double scale = ds.logical_scale();
    uint64_t logical =
        static_cast<uint64_t>(static_cast<double>(chunk_bytes) * scale);
    df.map_input_records +=
        static_cast<uint64_t>(static_cast<double>(chunk_rows) * scale);
    df.map_input_bytes += logical;
    df.map_input_stored_bytes += static_cast<uint64_t>(
        static_cast<double>(logical) *
        (ds.layout().compressed ? cluster_.compress_ratio : 1.0));
    return logical;
  };

  // ---- Bloom predicate-transfer build pass --------------------------------
  // Effective map stages: per-(branch, input) copies of the plan's stage
  // vectors, with probe stages rebound below to the filter built for their
  // branch. The plan's own stage instances stay untouched (unbound probe
  // stages are pass-throughs), so serialization and later runs see no
  // execution state; an observed run counts the bound probes, i.e. what
  // the run filtered.
  std::vector<std::vector<std::vector<Stage>>> eff_stages(nb);
  for (size_t bi = 0; bi < nb; ++bi) {
    const Branch& b = job.branches[bi];
    eff_stages[bi].reserve(b.inputs.size());
    for (const BranchInput& in : b.inputs) {
      eff_stages[bi].push_back(in.map_stages);
    }
  }
  for (size_t bi = 0; bi < nb; ++bi) {
    const Branch& b = job.branches[bi];
    if (!b.bloom) continue;
    const BloomTransferSpec& spec = *b.bloom;
    const BranchInput& build = b.inputs[spec.build_input];
    STUBBY_ASSIGN_OR_RETURN(DatasetPtr build_ds, dfs->Get(build.dataset_id));
    STUBBY_ASSIGN_OR_RETURN(
        std::vector<int> build_parts,
        SelectedPartitions(*build_ds, build.prune_partitions));
    STUBBY_ASSIGN_OR_RETURN(std::vector<size_t> key_idx,
                            b.map_output_schema.IndicesOf(spec.key_fields));
    // One build task per selected partition: run the build input's map
    // pipeline (per-partition reads preserve the clustering any packed-in
    // reduce stage relies on) and hash the output's key fields into a
    // per-task partial filter. Tees are discarded — the map phase proper
    // writes them once.
    struct BuildPiece {
      Status status = Status::OK();
      std::unique_ptr<BloomFilter> partial;
      uint64_t pb = 0;       ///< physical bytes read
      size_t hashed = 0;     ///< pipeline output rows inserted
      double cpu_units = 0.0;
    };
    std::vector<BuildPiece> build_pieces(build_parts.size());
    RunTasks(pool_, build_parts.size(), [&](size_t pi) {
      BuildPiece& piece = build_pieces[pi];
      const PartitionData& part =
          build_ds->partition_data(static_cast<size_t>(build_parts[pi]));
      piece.pb = part.raw_bytes();
      TaskTeeSink tee;
      VectorEmitter out;
      auto runner = PipelineRunner::Make(build.map_stages, build_ds->schema(),
                                         &out, &tee);
      if (!runner.ok()) {
        piece.status = runner.status();
        return;
      }
      for (const Row& row : part.rows()) (*runner)->EmitBorrowed(row);
      (*runner)->Finish();
      piece.cpu_units = (*runner)->cpu_units();
      piece.partial = std::make_unique<BloomFilter>(
          spec.bits_log2, spec.num_hashes, kBloomFilterSeed);
      for (const Row& row : out.rows()) {
        piece.partial->Insert(HashOnFields(row, key_idx));
      }
      piece.hashed = out.rows().size();
    });
    // Serial OR-merge in partition order (bitwise OR is order-independent,
    // so the merged filter is bit-identical at any thread count).
    auto filter = std::make_shared<BloomFilter>(spec.bits_log2,
                                                spec.num_hashes,
                                                kBloomFilterSeed);
    const double build_scale = build_ds->logical_scale();
    for (BuildPiece& piece : build_pieces) {
      if (!piece.status.ok()) return piece.status;
      filter->UnionWith(*piece.partial);
      df.bloom_build_records += static_cast<uint64_t>(
          static_cast<double>(piece.hashed) * build_scale);
      df.bloom_build_bytes += static_cast<uint64_t>(
          static_cast<double>(piece.pb) * build_scale);
      df.bloom_build_cpu_units +=
          (piece.cpu_units +
           static_cast<double>(piece.hashed) * kBloomHashCpuPerRecord) *
          build_scale;
    }
    df.bloom_filter_bytes += filter->SizeBytes();
    for (size_t ii : spec.probe_inputs) {
      for (Stage& s : eff_stages[bi][ii]) {
        if (s.kind != Stage::Kind::kMap) continue;
        auto* probe = dynamic_cast<BloomProbeMapFn*>(s.map_fn.get());
        if (probe != nullptr) s.map_fn = probe->Bind(filter);
      }
    }
  }

  // ---- Map phase: shared-scan input groups --------------------------------
  std::vector<InputGroup> groups = GroupBranchInputs(job);

  // Serial task formation: one task per (group, chunk). A chunk is a list
  // of partition segments — views into PartitionData payloads — so forming
  // tasks copies no rows: aligned reads take whole partitions, size-based
  // splits take [lo, hi) ranges of consecutive partitions.
  struct ChunkSeg {
    PartitionData pd;  // shares the dataset partition's rows
    size_t lo = 0;
    size_t hi = 0;
  };
  struct MapTask {
    const InputGroup* group = nullptr;
    DatasetPtr ds;
    double scale = 1.0;
    std::vector<ChunkSeg> segs;
  };
  std::vector<MapTask> map_tasks;
  for (const InputGroup& g : groups) {
    STUBBY_ASSIGN_OR_RETURN(DatasetPtr ds, dfs->Get(g.dataset_id));
    const double scale = ds->logical_scale();
    STUBBY_ASSIGN_OR_RETURN(std::vector<int> parts,
                            SelectedPartitions(*ds, g.prune_partitions));

    // Form map task input chunks.
    std::vector<std::vector<ChunkSeg>> chunks;
    if (g.aligned) {
      for (int p : parts) {
        const PartitionData& pd = ds->partition_data(static_cast<size_t>(p));
        chunks.push_back({ChunkSeg{pd, 0, pd.num_rows()}});
      }
      if (chunks.empty()) chunks.emplace_back();
    } else {
      uint64_t physical_bytes = 0;
      size_t total_rows = 0;
      for (int p : parts) {
        const PartitionData& pd = ds->partition_data(static_cast<size_t>(p));
        physical_bytes += pd.raw_bytes();
        total_rows += pd.num_rows();
      }
      double stored_logical = static_cast<double>(physical_bytes) * scale;
      if (ds->layout().compressed) stored_logical *= cluster_.compress_ratio;
      int tasks = std::max(
          1, static_cast<int>(
                 std::ceil(stored_logical / (job.config.split_mb * kMB))));
      tasks = std::min(tasks, kMaxMapTasks);
      size_t per = std::max<size_t>(
          1, (total_rows + static_cast<size_t>(tasks) - 1) /
                 static_cast<size_t>(tasks));
      for (int t = 0; t < tasks; ++t) {
        size_t lo = std::min(total_rows, static_cast<size_t>(t) * per);
        size_t hi = std::min(total_rows, lo + per);
        // Map the global row range [lo, hi) onto partition segments, in
        // `parts` order.
        std::vector<ChunkSeg> segs;
        size_t off = 0;
        for (int p : parts) {
          const PartitionData& pd =
              ds->partition_data(static_cast<size_t>(p));
          size_t n = pd.num_rows();
          size_t slo = std::max(lo, off);
          size_t shi = std::min(hi, off + n);
          if (slo < shi) segs.push_back(ChunkSeg{pd, slo - off, shi - off});
          off += n;
          if (off >= hi) break;
        }
        chunks.push_back(std::move(segs));
      }
      if (chunks.empty()) chunks.emplace_back();
    }

    df.num_map_tasks += static_cast<int>(chunks.size());
    df.pipelines_per_task = std::max(
        df.pipelines_per_task, static_cast<int>(g.subscribers.size()));
    for (std::vector<ChunkSeg>& chunk : chunks) {
      map_tasks.push_back(MapTask{&g, ds, scale, std::move(chunk)});
    }
  }

  // Parallel compute: every subscribing branch pipeline over the shared
  // scan, plus the per-branch shuffle work.
  struct SubscriberPiece {
    Status status = Status::OK();
    double cpu_units = 0.0;
    TeePieces tee;
    MapOutput output;
  };
  struct MapTaskResult {
    uint64_t chunk_bytes = 0;
    size_t chunk_rows = 0;
    std::vector<SubscriberPiece> pieces;
  };
  std::vector<MapTaskResult> map_results(map_tasks.size());
  RunTasks(pool_, map_tasks.size(), [&](size_t ti) {
    MapTask& t = map_tasks[ti];
    MapTaskResult& res = map_results[ti];
    for (const ChunkSeg& seg : t.segs) {
      res.chunk_rows += seg.hi - seg.lo;
      res.chunk_bytes += seg.pd.RangeBytes(seg.lo, seg.hi);
    }
    for (const auto& [bi, ii] : t.group->subscribers) {
      SubscriberPiece& piece = res.pieces.emplace_back();
      TaskTeeSink tee;
      VectorEmitter out;
      auto runner = PipelineRunner::Make(
          eff_stages[bi][ii], t.ds->schema(), &out, &tee,
          observe_input(&piece.output.observed, ii, res.chunk_rows,
                        res.chunk_bytes));
      if (!runner.ok()) {
        piece.status = runner.status();
        continue;
      }
      for (const ChunkSeg& seg : t.segs) {
        const auto& src = seg.pd.rows();
        for (size_t i = seg.lo; i < seg.hi; ++i) {
          (*runner)->EmitBorrowed(src[i]);
        }
      }
      (*runner)->Finish();
      piece.cpu_units = (*runner)->cpu_units();
      piece.tee = tee.Take();
      finish_map(bi, std::move(out.rows()), &piece.output);
    }
    t.segs.clear();
    t.segs.shrink_to_fit();
  });

  // Serial merge in task order.
  for (size_t ti = 0; ti < map_tasks.size(); ++ti) {
    MapTask& t = map_tasks[ti];
    MapTaskResult& res = map_results[ti];
    uint64_t logical = account_input(*t.ds, res.chunk_bytes, res.chunk_rows);
    df.max_map_task_input_bytes =
        std::max(df.max_map_task_input_bytes, logical);
    for (size_t si = 0; si < res.pieces.size(); ++si) {
      SubscriberPiece& piece = res.pieces[si];
      if (!piece.status.ok()) return piece.status;
      const size_t bi = t.group->subscribers[si].first;
      df.map_cpu_units += piece.cpu_units * t.scale;
      drain_tee(piece.tee, t.scale);
      merge_map(bi, piece.output, t.scale);
    }
  }
  map_results.clear();
  map_tasks.clear();

  // ---- Map phase: merge-mode branches (co-aligned inputs) -----------------
  struct MergeBranchCtx {
    size_t bi = 0;
    std::vector<DatasetPtr> inputs_ds;
    std::vector<std::vector<int>> inputs_parts;
    std::vector<size_t> merge_sort_idx;
  };
  std::vector<MergeBranchCtx> merge_ctx;
  struct MergeTask {
    size_t ctx = 0;
    size_t t = 0;
  };
  std::vector<MergeTask> merge_tasks;
  for (size_t bi = 0; bi < nb; ++bi) {
    const Branch& b = job.branches[bi];
    if (!b.merge_mode()) continue;

    MergeBranchCtx ctx;
    ctx.bi = bi;
    size_t max_parts = 0;
    for (const BranchInput& in : b.inputs) {
      STUBBY_ASSIGN_OR_RETURN(DatasetPtr ds, dfs->Get(in.dataset_id));
      STUBBY_ASSIGN_OR_RETURN(std::vector<int> parts,
                              SelectedPartitions(*ds, in.prune_partitions));
      max_parts = std::max(max_parts, parts.size());
      ctx.inputs_ds.push_back(std::move(ds));
      ctx.inputs_parts.push_back(std::move(parts));
    }
    if (max_parts == 0) max_parts = 1;
    df.num_map_tasks += static_cast<int>(max_parts);
    df.pipelines_per_task = std::max(df.pipelines_per_task, 1);
    STUBBY_ASSIGN_OR_RETURN(ctx.merge_sort_idx,
                            b.merge_schema.IndicesOf(b.merge_sort_fields));
    merge_ctx.push_back(std::move(ctx));
    for (size_t t = 0; t < max_parts; ++t) {
      merge_tasks.push_back(MergeTask{merge_ctx.size() - 1, t});
    }
  }

  struct MergeInputPiece {
    size_t input_index = 0;
    uint64_t pb = 0;  ///< physical bytes read
    size_t nrows = 0;
    double cpu_units = 0.0;
    TeePieces tee;
  };
  struct MergeTaskResult {
    Status status = Status::OK();
    std::vector<MergeInputPiece> pieces;
    uint64_t task_logical_bytes = 0;
    double task_scale = 1.0;
    double merged_cpu_units = 0.0;
    TeePieces merged_tee;
    MapOutput output;
  };
  std::vector<MergeTaskResult> merge_results(merge_tasks.size());
  RunTasks(pool_, merge_tasks.size(), [&](size_t ti) {
    const MergeBranchCtx& ctx = merge_ctx[merge_tasks[ti].ctx];
    const size_t t = merge_tasks[ti].t;
    MergeTaskResult& res = merge_results[ti];
    const Branch& b = job.branches[ctx.bi];

    std::vector<Row> merged;
    double task_scaled_bytes = 0.0;
    uint64_t task_physical_bytes = 0;
    for (size_t i = 0; i < b.inputs.size(); ++i) {
      if (t >= ctx.inputs_parts[i].size()) continue;
      const StoredDataset& ds = *ctx.inputs_ds[i];
      const PartitionData& part =
          ds.partition_data(static_cast<size_t>(ctx.inputs_parts[i][t]));
      uint64_t pb = part.raw_bytes();
      // Same arithmetic as account_input's `logical`, without the dataflow
      // mutation (that happens at merge).
      uint64_t logical = static_cast<uint64_t>(static_cast<double>(pb) *
                                               ds.logical_scale());
      res.task_logical_bytes += logical;
      task_scaled_bytes += static_cast<double>(logical);
      task_physical_bytes += pb;

      MergeInputPiece& piece = res.pieces.emplace_back();
      piece.input_index = i;
      piece.pb = pb;
      piece.nrows = part.num_rows();
      TaskTeeSink tee;
      VectorEmitter out;
      auto runner = PipelineRunner::Make(
          b.inputs[i].map_stages, ds.schema(), &out, &tee,
          observe_input(&res.output.observed, i, part.num_rows(), pb));
      if (!runner.ok()) {
        res.status = runner.status();
        return;
      }
      for (const Row& row : part.rows()) (*runner)->EmitBorrowed(row);
      (*runner)->Finish();
      piece.cpu_units = (*runner)->cpu_units();
      piece.tee = tee.Take();
      merged.insert(merged.end(), std::make_move_iterator(out.rows().begin()),
                    std::make_move_iterator(out.rows().end()));
    }
    res.task_scale =
        task_physical_bytes > 0
            ? task_scaled_bytes / static_cast<double>(task_physical_bytes)
            : 1.0;

    // Co-aligned merge: interleave the per-input streams by sort order.
    StableSortOnFields(&merged, ctx.merge_sort_idx);
    TaskTeeSink tee;
    VectorEmitter out;
    auto runner = PipelineRunner::Make(
        b.merged_map_stages, b.merge_schema, &out, &tee,
        observe ? &res.output.observed.merged_map_stages : nullptr);
    if (!runner.ok()) {
      res.status = runner.status();
      return;
    }
    for (Row& row : merged) (*runner)->Emit(std::move(row));
    (*runner)->Finish();
    res.merged_cpu_units = (*runner)->cpu_units();
    res.merged_tee = tee.Take();
    finish_map(ctx.bi, std::move(out.rows()), &res.output);
  });

  for (size_t ti = 0; ti < merge_tasks.size(); ++ti) {
    const MergeBranchCtx& ctx = merge_ctx[merge_tasks[ti].ctx];
    MergeTaskResult& res = merge_results[ti];
    if (!res.status.ok()) return res.status;
    for (MergeInputPiece& piece : res.pieces) {
      const StoredDataset& ds = *ctx.inputs_ds[piece.input_index];
      account_input(ds, piece.pb, piece.nrows);
      df.map_cpu_units += piece.cpu_units * ds.logical_scale();
      drain_tee(piece.tee, ds.logical_scale());
    }
    df.max_map_task_input_bytes =
        std::max(df.max_map_task_input_bytes, res.task_logical_bytes);
    df.map_cpu_units += res.merged_cpu_units * res.task_scale;
    drain_tee(res.merged_tee, res.task_scale);
    merge_map(ctx.bi, res.output, res.task_scale);
  }
  merge_results.clear();
  merge_tasks.clear();

  // Distinct K2 groups: one sort of the hashes the merge appended. An
  // observed run keeps their runs (the profiler's K2 statistics).
  for (size_t bi = 0; bi < nb; ++bi) {
    if (job.branches[bi].map_only()) continue;
    BranchState& st = bstate[bi];
    std::vector<uint64_t>& hashes = st.group_hashes;
    std::sort(hashes.begin(), hashes.end());
    ValueRuns<uint64_t>* runs =
        observe ? &(*observation)[bi].group_runs : nullptr;
    for (size_t i = 0; i < hashes.size(); ++i) {
      if (i > 0 && hashes[i] == hashes[i - 1]) {
        if (runs != nullptr) runs->back().second++;
        continue;
      }
      st.distinct_groups++;
      if (runs != nullptr) runs->emplace_back(hashes[i], 1);
    }
    hashes = {};
  }

  // Combine-effectiveness accounting at logical scale: a map task emitting
  // n records over G distinct groups combines down to about
  // G*(1-exp(-n/G)) records. The what-if engine uses the same model, so
  // estimation error stems from its profiled G, not from model mismatch.
  for (size_t bi = 0; bi < nb; ++bi) {
    const Branch& b = job.branches[bi];
    if (b.map_only()) continue;
    BranchState& st = bstate[bi];
    if (job.config.use_combiner && b.combiner != nullptr &&
        st.distinct_groups > 0 && st.raw_scaled_records > 0) {
      double groups = static_cast<double>(st.distinct_groups);
      double combined = 0.0;
      for (double n : st.task_logical_records) {
        if (n <= 0) continue;
        combined += std::min(n, groups * (1.0 - std::exp(-n / groups)));
      }
      st.combine_ratio = std::min(1.0, combined / st.raw_scaled_records);
      // Every map-output record passes through the combiner once.
      df.combine_cpu_units +=
          st.raw_scaled_records * b.combiner->cpu_cost_per_record();
    }
    df.combine_output_records +=
        static_cast<uint64_t>(st.raw_scaled_records * st.combine_ratio);
    df.combine_output_bytes +=
        static_cast<uint64_t>(st.raw_scaled_bytes * st.combine_ratio);
  }

  // ---- Reduce phase --------------------------------------------------------
  if (!map_only) {
    // One task per reduce partition; task r exclusively owns every branch's
    // bucket r, so concatenating and draining its pieces is race-free.
    struct ReducePiece {
      Status status = Status::OK();
      bool had_rows = false;
      double cpu_units = 0.0;
      TeePieces tee;
      PartitionData out;
      BranchObservation observed;  // observed runs only
    };
    struct ReduceTaskResult {
      std::vector<ReducePiece> pieces;  // indexed by branch
    };
    std::vector<ReduceTaskResult> reduce_results(static_cast<size_t>(R));
    RunTasks(pool_, static_cast<size_t>(R), [&](size_t ri) {
      ReduceTaskResult& res = reduce_results[ri];
      res.pieces.resize(nb);
      for (size_t bi = 0; bi < nb; ++bi) {
        const Branch& b = job.branches[bi];
        if (b.map_only()) continue;
        BranchState& st = bstate[bi];
        ReducePiece& piece = res.pieces[bi];

        // Concatenate the map tasks' pieces in task order.
        std::vector<std::vector<Row>>& bucket = st.reduce_buckets[ri];
        std::vector<Row> rows;
        if (bucket.size() == 1) {
          rows = std::move(bucket.front());
        } else {
          size_t total = 0;
          for (const std::vector<Row>& part : bucket) total += part.size();
          rows.reserve(total);
          for (std::vector<Row>& part : bucket) {
            rows.insert(rows.end(), std::make_move_iterator(part.begin()),
                        std::make_move_iterator(part.end()));
          }
        }
        bucket.clear();
        bucket.shrink_to_fit();
        piece.had_rows = !rows.empty();

        // Merge the per-map sorted segments (modeled as one stable sort).
        StableSortOnFields(&rows, st.partition_sort_indices);
        TaskTeeSink tee;
        VectorEmitter out;
        auto runner = PipelineRunner::Make(
            b.reduce_stages, b.map_output_schema, &out, &tee,
            observe ? &piece.observed.reduce_stages : nullptr);
        if (!runner.ok()) {
          piece.status = runner.status();
          continue;
        }
        for (Row& row : rows) (*runner)->Emit(std::move(row));
        (*runner)->Finish();
        piece.cpu_units = (*runner)->cpu_units();
        piece.tee = tee.Take();
        piece.out = PartitionData(std::move(out.rows()));
      }
    });

    for (int r = 0; r < R; ++r) {
      ReduceTaskResult& res = reduce_results[static_cast<size_t>(r)];
      double partition_scaled_bytes = 0.0;
      bool nonempty = false;
      for (size_t bi = 0; bi < nb; ++bi) {
        const Branch& b = job.branches[bi];
        if (b.map_only()) continue;
        BranchState& st = bstate[bi];
        const size_t ri = static_cast<size_t>(r);
        ReducePiece& piece = res.pieces[bi];
        if (!piece.status.ok()) return piece.status;
        partition_scaled_bytes +=
            st.bucket_scaled_bytes[ri] * st.combine_ratio;
        // Plain logical/physical data ratio (combine-independent): scales
        // the reduce pipeline's outputs, whose record counts track groups,
        // not pre-aggregation.
        double scale = st.bucket_physical_records[ri] > 0
                           ? st.bucket_scaled_records[ri] /
                                 static_cast<double>(
                                     st.bucket_physical_records[ri])
                           : 1.0;
        // Reduce-side CPU processes the logically-combined stream.
        double cpu_scale =
            st.bucket_physical_post_records[ri] > 0
                ? st.bucket_scaled_records[ri] * st.combine_ratio /
                      static_cast<double>(st.bucket_physical_post_records[ri])
                : 1.0;
        if (piece.had_rows) nonempty = true;

        df.reduce_input_records += static_cast<uint64_t>(
            st.bucket_scaled_records[ri] * st.combine_ratio);
        df.reduce_input_bytes += static_cast<uint64_t>(
            st.bucket_scaled_bytes[ri] * st.combine_ratio);
        df.reduce_cpu_units += piece.cpu_units * cpu_scale;
        drain_tee(piece.tee, scale);
        if (observe) AddObservation(&(*observation)[bi], piece.observed);
        st.output.AddTo(ri, std::move(piece.out), scale);
      }
      if (nonempty) df.nonempty_reduce_partitions++;
      df.max_reduce_input_bytes =
          std::max(df.max_reduce_input_bytes,
                   static_cast<uint64_t>(partition_scaled_bytes));
    }
  }

  // ---- Materialize outputs -------------------------------------------------
  for (size_t bi = 0; bi < nb; ++bi) {
    const Branch& b = job.branches[bi];
    BranchState& st = bstate[bi];
    STUBBY_ASSIGN_OR_RETURN(const DatasetVertex* dv,
                            plan.GetDataset(b.output_dataset));
    Layout layout = DeriveOutputLayout(b, job.config, dv->schema);
    auto out_ds =
        std::make_shared<StoredDataset>(b.output_dataset, dv->schema, layout);
    if (!b.map_only() &&
        st.output.partitions.size() < static_cast<size_t>(R)) {
      st.output.partitions.resize(static_cast<size_t>(R));
    }
    for (auto& p : st.output.partitions) out_ds->AddPartition(std::move(p));
    out_ds->set_logical_scale(st.output.LogicalScale());
    df.output_records += static_cast<uint64_t>(st.output.scaled_records);
    df.output_bytes += static_cast<uint64_t>(st.output.scaled_bytes);
    dfs->PutOrReplace(std::move(out_ds));
  }
  // Every declared tee must land in the DFS, even when the teed stream
  // filtered down to nothing — downstream jobs read it unconditionally,
  // exactly as they would the regular job output it replaced.
  for (const auto& [id, schema] : tee_schemas) {
    Layout layout;  // tee outputs are plain block files
    auto ds = std::make_shared<StoredDataset>(id, schema, layout);
    auto it = tee_builders.find(id);
    if (it != tee_builders.end()) {
      for (auto& p : it->second.partitions) ds->AddPartition(std::move(p));
      ds->set_logical_scale(it->second.LogicalScale());
    }
    dfs->PutOrReplace(std::move(ds));
  }
  if (observe) {
    for (BranchObservation& seen : *observation) {
      for (std::optional<ValueRuns<double>>& runs : seen.field_runs) {
        if (runs) FoldRuns(&*runs);
      }
    }
  }
  return df;
}

}  // namespace stubby
