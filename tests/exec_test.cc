// Tests for exec/: record-level execution of jobs and workflows on the
// simulated cluster — result correctness, accounting, pruning, alignment,
// shared scans, and logical scaling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "common/threading.h"
#include "exec/job_runner.h"
#include "reuse/result_store.h"
#include "test_workflows.h"
#include "workloads/registry.h"

namespace stubby {
namespace {

using ::stubby::testing::ExpectEquivalent;
using ::stubby::testing::MakeChain;
using ::stubby::testing::MakeSiblings;
using ::stubby::testing::RunOn;

TEST(WorkflowRunnerTest, ChainProducesCorrectAggregates) {
  auto f = MakeChain(/*rows=*/1000, /*distinct_k=*/10, /*distinct_z=*/5);
  ASSERT_TRUE(f.ok());
  Dfs result;
  RunOn(*f, f->plan(), &result);

  // Reference aggregation computed directly from the base data.
  auto base = f->dfs().Get("IN");
  ASSERT_TRUE(base.ok());
  std::map<int64_t, double> expected;
  for (const Row& r : (*base)->AllRows()) {
    expected[r[0].AsInt()] += r[2].AsDouble();
  }
  auto out = result.Get("OUT");
  ASSERT_TRUE(out.ok());
  std::vector<Row> rows = (*out)->AllRows();
  ASSERT_EQ(rows.size(), expected.size());
  for (const Row& r : rows) {
    EXPECT_NEAR(r[1].AsDouble(), expected[r[0].AsInt()], 1e-6);
  }
}

TEST(WorkflowRunnerTest, MissingBaseInputFails) {
  auto f = MakeChain();
  ASSERT_TRUE(f.ok());
  WorkflowRunner runner(f->plan().cluster());
  Dfs empty;
  EXPECT_FALSE(runner.Run(f->plan(), &empty).ok());
}

TEST(WorkflowRunnerTest, CombinerDoesNotChangeResults) {
  auto f = MakeChain(2000, 20, 10);
  ASSERT_TRUE(f.ok());
  Plan with = f->plan();
  Plan without = f->plan();
  (*with.GetMutableJob("Jp"))->config.use_combiner = true;
  (*without.GetMutableJob("Jp"))->config.use_combiner = false;
  ExpectEquivalent(*f, with, without);
}

TEST(WorkflowRunnerTest, ReduceCountDoesNotChangeResults) {
  auto f = MakeChain(2000, 20, 10);
  ASSERT_TRUE(f.ok());
  Plan small = f->plan();
  Plan large = f->plan();
  (*small.GetMutableJob("Jp"))->config.num_reduce_tasks = 1;
  (*large.GetMutableJob("Jp"))->config.num_reduce_tasks = 97;
  ExpectEquivalent(*f, small, large);
}

TEST(JobRunnerTest, DataflowAccountingIsConsistent) {
  auto f = MakeChain(1000, 10, 5);
  ASSERT_TRUE(f.ok());
  WorkflowDataflow flow = RunOn(*f, f->plan());
  ASSERT_EQ(flow.jobs.size(), 2u);
  const JobDataflow& jp = flow.jobs[0];
  EXPECT_GT(jp.num_map_tasks, 0);
  EXPECT_GT(jp.map_input_bytes, 0u);
  // Logical input of Jp equals the base dataset's logical size.
  auto base = f->dfs().Get("IN");
  EXPECT_NEAR(static_cast<double>(jp.map_input_bytes),
              static_cast<double>((*base)->logical_bytes()),
              static_cast<double>((*base)->logical_bytes()) * 0.01);
  // Combiner off by default; map output flows into the reduce (up to
  // per-bucket rounding of the scaled accounting).
  EXPECT_NEAR(static_cast<double>(jp.combine_output_records),
              static_cast<double>(jp.map_output_records),
              1e-6 * jp.map_output_records);
  EXPECT_NEAR(static_cast<double>(jp.reduce_input_records),
              static_cast<double>(jp.combine_output_records),
              1e-6 * jp.combine_output_records);
  EXPECT_GE(jp.max_reduce_input_bytes,
            jp.reduce_input_bytes / static_cast<uint64_t>(
                                        std::max(1, jp.num_reduce_tasks)));
  EXPECT_GT(flow.makespan_sec, 0.0);
}

TEST(JobRunnerTest, CombinerShrinksShuffleAccounting) {
  auto f = MakeChain(4000, 5, 2);  // few groups => combining collapses a lot
  ASSERT_TRUE(f.ok());
  Plan plan = f->plan();
  (*plan.GetMutableJob("Jp"))->config.use_combiner = true;
  WorkflowDataflow flow = RunOn(*f, plan);
  const JobDataflow& jp = flow.jobs[0];
  EXPECT_LT(jp.combine_output_records, jp.map_output_records / 2);
}

TEST(JobRunnerTest, SharedScanCountsInputOnce) {
  auto f = MakeSiblings(2000);
  ASSERT_TRUE(f.ok());
  // Pack manually into one two-branch job.
  Plan plan = f->plan();
  JobVertex packed;
  packed.id = "packed";
  packed.branches = {(*plan.GetJob("Ja"))->branches[0],
                     (*plan.GetJob("Jb"))->branches[0]};
  packed.config = (*plan.GetJob("Ja"))->config;
  plan.RemoveJob("Ja");
  plan.RemoveJob("Jb");
  ASSERT_TRUE(plan.AddJob(packed).ok());
  ASSERT_TRUE(plan.Validate().ok());

  WorkflowDataflow packed_flow = RunOn(*f, plan);
  WorkflowDataflow separate_flow = RunOn(*f, f->plan());
  uint64_t packed_in = packed_flow.jobs[0].map_input_bytes;
  uint64_t separate_in = separate_flow.jobs[0].map_input_bytes +
                         separate_flow.jobs[1].map_input_bytes;
  EXPECT_NEAR(static_cast<double>(separate_in),
              2.0 * static_cast<double>(packed_in), 0.02 * separate_in);
  EXPECT_EQ(packed_flow.jobs[0].pipelines_per_task, 2);
  // ...and the packed plan computes the same outputs.
  ExpectEquivalent(*f, plan, f->plan());
}

TEST(JobRunnerTest, PartitionPruningReadsSubset) {
  // Range-partitioned base dataset; consumer reads only partition 0.
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema schema({"k", "v"});
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back(Row{int64_t{i % 100}, 1.0});
  Layout layout;
  PartitionSpec spec;
  spec.type = PartitionType::kRange;
  spec.partition_fields = {"k"};
  spec.sort_fields = {"k"};
  spec.split_points = {Row{int64_t{50}}};
  layout.partitioning = spec;
  ASSERT_TRUE(
      f.AddBase("IN", schema, layout, 2, rows, testing::kGB).ok());
  ASSERT_TRUE(f.AddDataset("OUT", schema, true).ok());
  WorkflowFactory::JobDef j;
  j.id = "J";
  BranchInput in = In("IN", {});
  in.prune_partitions = {0};
  j.inputs = {in};
  j.map_output_schema = schema;
  j.output = "OUT";
  ASSERT_TRUE(f.AddJob(std::move(j)).ok());

  Dfs result;
  WorkflowDataflow flow = RunOn(f, f.plan(), &result);
  auto out = result.Get("OUT");
  ASSERT_TRUE(out.ok());
  for (const Row& r : (*out)->AllRows()) EXPECT_LT(r[0].AsInt(), 50);
  // Roughly half the logical bytes were read.
  auto base = f.dfs().Get("IN");
  EXPECT_LT(flow.jobs[0].map_input_bytes, (*base)->logical_bytes() * 6 / 10);
}

TEST(JobRunnerTest, MapOnlyJobWritesPerTaskPartitions) {
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema schema({"k", "v"});
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(Row{int64_t{i}, 2.0});
  Layout layout;
  ASSERT_TRUE(
      f.AddBase("IN", schema, layout, 4, rows, 4 * testing::kGB).ok());
  ASSERT_TRUE(f.AddDataset("OUT", schema, true).ok());
  WorkflowFactory::JobDef j;
  j.id = "J";
  j.inputs = {In("IN", {})};
  j.map_output_schema = schema;
  j.output = "OUT";
  ASSERT_TRUE(f.AddJob(std::move(j)).ok());
  Dfs result;
  WorkflowDataflow flow = RunOn(f, f.plan(), &result);
  EXPECT_EQ(flow.jobs[0].num_reduce_tasks, 0);
  auto out = result.Get("OUT");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 100u);
  EXPECT_EQ(static_cast<int>((*out)->num_partitions()),
            flow.jobs[0].num_map_tasks);
}

TEST(JobRunnerTest, ResolvePartitionSpecDeduplicatesSplitCandidates) {
  // A sampler output with repeated boundary rows must not yield duplicate
  // split points: equal adjacent boundaries define ranges that can never
  // receive a record, silently wasting reduce partitions.
  Dfs dfs;
  Layout layout;
  std::vector<Row> rows;
  for (int i = 0; i < 4; ++i) {
    rows.push_back(Row{int64_t{5}});
    rows.push_back(Row{int64_t{9}});
  }
  auto ds = StoredDataset::FromRows("SPLITS", Schema({"k"}), layout,
                                    std::move(rows), 1);
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE(dfs.Put(*ds).ok());

  Branch branch;
  branch.partition.type = PartitionType::kRange;
  branch.partition.partition_fields = {"k"};
  branch.partition.split_points_from = "SPLITS";

  auto spec = ResolvePartitionSpec(branch, /*R=*/8, dfs);
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->split_points.size(), 2u);  // the two distinct boundaries
  EXPECT_LT(spec->split_points[0], spec->split_points[1]);
}

TEST(JobRunnerTest, PrunePartitionOutOfRangeFails) {
  // A prune entry pointing past the dataset's partition count used to be
  // silently dropped, making the consumer read nothing where the plan
  // claimed a subset scan; it must surface as an error instead.
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema schema({"k", "v"});
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) rows.push_back(Row{int64_t{i}, 1.0});
  Layout layout;
  ASSERT_TRUE(
      f.AddBase("IN", schema, layout, 2, rows, testing::kGB).ok());
  ASSERT_TRUE(f.AddDataset("OUT", schema, true).ok());
  WorkflowFactory::JobDef j;
  j.id = "J";
  BranchInput in = In("IN", {});
  in.prune_partitions = {5};  // IN has 2 partitions
  j.inputs = {in};
  j.map_output_schema = schema;
  j.output = "OUT";
  ASSERT_TRUE(f.AddJob(std::move(j)).ok());

  WorkflowRunner runner(f.plan().cluster());
  Dfs dfs = f.dfs();
  auto flow = runner.Run(f.plan(), &dfs);
  ASSERT_FALSE(flow.ok());
  EXPECT_EQ(flow.status().code(), StatusCode::kInvalidArgument);
}

// --- thread-count invariance ------------------------------------------------

bool SameDoubleBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every field of a job's dataflow, doubles as hex floats, so equal text
/// means equal bits.
std::string DataflowBits(const JobDataflow& d) {
  using ull = unsigned long long;
  return StrFormat(
      "%s maps=%d reduces=%d in=%llu/%llu/%llu cpu=%a mapout=%llu/%llu "
      "combine=%llu/%llu/%a redin=%llu/%llu/%a out=%llu/%llu/%d tee=%llu "
      "bloom=%llu/%llu/%a/%llu max=%llu/%llu nonempty=%d pipelines=%d\n",
      d.job_id.c_str(), d.num_map_tasks, d.num_reduce_tasks,
      static_cast<ull>(d.map_input_records),
      static_cast<ull>(d.map_input_bytes),
      static_cast<ull>(d.map_input_stored_bytes), d.map_cpu_units,
      static_cast<ull>(d.map_output_records),
      static_cast<ull>(d.map_output_bytes),
      static_cast<ull>(d.combine_output_records),
      static_cast<ull>(d.combine_output_bytes), d.combine_cpu_units,
      static_cast<ull>(d.reduce_input_records),
      static_cast<ull>(d.reduce_input_bytes), d.reduce_cpu_units,
      static_cast<ull>(d.output_records), static_cast<ull>(d.output_bytes),
      d.output_compressed ? 1 : 0, static_cast<ull>(d.tee_bytes),
      static_cast<ull>(d.bloom_build_records),
      static_cast<ull>(d.bloom_build_bytes), d.bloom_build_cpu_units,
      static_cast<ull>(d.bloom_filter_bytes),
      static_cast<ull>(d.max_map_task_input_bytes),
      static_cast<ull>(d.max_reduce_input_bytes),
      d.nonempty_reduce_partitions, d.pipelines_per_task);
}

/// Every dataset a run wrote, partition by partition in stored order, each
/// value with its type and every bit (doubles as hex floats).
std::string StoredBits(const Plan& plan, const Dfs& dfs) {
  std::string out;
  for (const auto& [id, v] : plan.datasets()) {
    if (v.is_base_input) continue;
    auto ds = dfs.Get(id);
    if (!ds.ok()) continue;
    out += StrFormat("%s scale=%a\n", id.c_str(), (*ds)->logical_scale());
    for (size_t p = 0; p < (*ds)->num_partitions(); ++p) {
      out += StrFormat("p%zu", p);
      for (const Row& row : (*ds)->partition_data(p).rows()) {
        out += " (";
        for (size_t i = 0; i < row.size(); ++i) {
          const Value& value = row[i];
          if (i > 0) out += ",";
          if (value.is_int()) {
            out += StrFormat("i%lld", static_cast<long long>(value.AsInt()));
          } else if (value.is_double()) {
            out += StrFormat("d%a", value.AsDouble());
          } else {
            out += StrFormat("s%zu:", value.AsString().size()) +
                   value.AsString();
          }
        }
        out += ")";
      }
      out += "\n";
    }
  }
  return out;
}

/// One execution of a workload's plan: raw outputs plus the observables
/// the determinism contract covers — every job's dataflow bits, every
/// job's finish time and the makespan, and every written dataset's bits.
struct ExecObservables {
  std::map<std::string, std::vector<Row>> outputs;
  double makespan = 0.0;
  std::string dataflow;
  std::string finish;
  std::string stored;
};

Result<ExecObservables> RunWorkload(const Workload& w, ThreadPool* pool) {
  Dfs dfs = w.dfs;
  WorkflowRunner runner(w.plan.cluster(), pool);
  STUBBY_ASSIGN_OR_RETURN(WorkflowDataflow flow, runner.Run(w.plan, &dfs));
  ExecObservables obs;
  obs.makespan = flow.makespan_sec;
  for (const JobDataflow& jd : flow.jobs) obs.dataflow += DataflowBits(jd);
  for (const auto& [jid, t] : flow.job_finish_sec) {
    obs.finish += StrFormat("%s %a\n", jid.c_str(), t);
  }
  for (const auto& [id, v] : w.plan.datasets()) {
    if (!v.is_workflow_output) continue;
    STUBBY_ASSIGN_OR_RETURN(DatasetPtr out, dfs.Get(id));
    obs.outputs.emplace(id, out->AllRows());
  }
  obs.stored = StoredBits(w.plan, dfs);
  return obs;
}

/// Job-by-job observed execution of a workload's plan: every count, hash
/// run and value run each job's observation holds, as text (values as hex
/// floats, so equal text means equal bits), and the runs' dataflow.
struct Observed {
  std::string observation;
  std::string dataflow;
};

Result<Observed> ObserveWorkload(const Workload& w, ThreadPool* pool) {
  Dfs dfs = w.dfs;
  JobRunner runner(w.plan.cluster(), pool);
  STUBBY_ASSIGN_OR_RETURN(std::vector<std::string> order,
                          w.plan.TopologicalOrder());
  Observed got;
  std::string& out = got.observation;
  auto counts = [&](const char* what, const std::vector<StageCounts>& cs) {
    out += what;
    for (const StageCounts& c : cs) {
      out += StrFormat(" %llu/%llu/%llu/%llu/%llu",
                       static_cast<unsigned long long>(c.records_in),
                       static_cast<unsigned long long>(c.bytes_in),
                       static_cast<unsigned long long>(c.records_out),
                       static_cast<unsigned long long>(c.bytes_out),
                       static_cast<unsigned long long>(c.groups));
    }
    out += "\n";
  };
  for (const std::string& jid : order) {
    STUBBY_ASSIGN_OR_RETURN(const JobVertex* job, w.plan.GetJob(jid));
    std::vector<BranchObservation> obs;
    STUBBY_ASSIGN_OR_RETURN(JobDataflow df,
                            runner.Run(w.plan, *job, &dfs, &obs));
    got.dataflow += DataflowBits(df);
    for (const BranchObservation& b : obs) {
      out += jid + "\n";
      for (const BranchObservation::Input& in : b.inputs) {
        out += StrFormat("in %llu %llu",
                         static_cast<unsigned long long>(in.records),
                         static_cast<unsigned long long>(in.bytes));
        counts("", in.map_stages);
      }
      counts("merged", b.merged_map_stages);
      counts("reduce", b.reduce_stages);
      out += StrFormat("map_output %llu %llu groups",
                       static_cast<unsigned long long>(b.map_output_records),
                       static_cast<unsigned long long>(b.map_output_bytes));
      for (const auto& [hash, n] : b.group_runs) {
        out += StrFormat(" %llx:%llu", static_cast<unsigned long long>(hash),
                         static_cast<unsigned long long>(n));
      }
      out += "\n";
      for (const std::optional<ValueRuns<double>>& runs : b.field_runs) {
        out += runs ? "values" : "string";
        for (const auto& [v, n] : runs ? *runs : ValueRuns<double>{}) {
          out += StrFormat(" %a:%llu", v, static_cast<unsigned long long>(n));
        }
        out += "\n";
      }
    }
  }
  return got;
}

/// Where two long texts first differ, with some context.
std::string FirstDifference(const std::string& a, const std::string& b) {
  size_t i = static_cast<size_t>(
      std::mismatch(a.begin(), a.begin() + std::min(a.size(), b.size()),
                    b.begin())
          .first -
      a.begin());
  size_t from = i < 80 ? 0 : i - 80;
  return "at byte " + std::to_string(i) + ": ..." + a.substr(from, 160) +
         "\n  vs ..." + b.substr(from, 160);
}

/// The executor's determinism contract over all eight Table 1 workloads:
/// a 4-thread run is bit-identical to a 1-thread run in outputs (raw
/// order, no canonical sort), per-job dataflow accounting, and makespan;
/// so is what an observed run records for the profiler, and observing a
/// run leaves its dataflow as it is.
TEST(WorkflowRunnerTest, IsBitIdenticalAcrossWorkloadsAndThreads) {
  for (const std::string& abbr : AllWorkloadAbbrs()) {
    WorkloadOptions wopts;
    wopts.sample_rows = 3000;
    auto w = MakeWorkload(abbr, wopts);
    ASSERT_TRUE(w.ok()) << abbr;
    ThreadPool serial(1);
    ThreadPool parallel(4);
    auto one = RunWorkload(*w, &serial);
    ASSERT_TRUE(one.ok()) << abbr << " t1: " << one.status();
    auto four = RunWorkload(*w, &parallel);
    ASSERT_TRUE(four.ok()) << abbr << " t4: " << four.status();
    ASSERT_EQ(one->outputs.size(), four->outputs.size()) << abbr;
    for (const auto& [id, rows] : one->outputs) {
      ASSERT_EQ(four->outputs.count(id), 1u) << abbr << " " << id;
      EXPECT_TRUE(RowsBitIdentical(rows, four->outputs.at(id)))
          << abbr << " output " << id << " differs between 1 and 4 threads";
    }
    EXPECT_EQ(one->dataflow, four->dataflow) << abbr;
    EXPECT_EQ(one->finish, four->finish) << abbr;
    EXPECT_TRUE(one->stored == four->stored)
        << abbr << " stored datasets differ between 1 and 4 threads";
    EXPECT_TRUE(SameDoubleBits(one->makespan, four->makespan))
        << abbr << ": " << one->makespan << " vs " << four->makespan;

    auto observed_one = ObserveWorkload(*w, &serial);
    ASSERT_TRUE(observed_one.ok()) << abbr << " t1: " << observed_one.status();
    auto observed_four = ObserveWorkload(*w, &parallel);
    ASSERT_TRUE(observed_four.ok())
        << abbr << " t4: " << observed_four.status();
    EXPECT_TRUE(observed_one->observation == observed_four->observation)
        << abbr << " observation differs between 1 and 4 threads "
        << FirstDifference(observed_one->observation,
                           observed_four->observation);
    EXPECT_EQ(observed_one->dataflow, one->dataflow) << abbr;
    EXPECT_EQ(observed_four->dataflow, one->dataflow) << abbr;
  }
}

/// `plan` with every job's combiner on and 16 reduce tasks, job by job
/// wherever the plan still validates.
Plan WithCombinerAnd16Reducers(const Plan& plan) {
  Plan out = plan;
  for (const auto& [jid, job] : plan.jobs()) {
    JobVertex* edited = *out.GetMutableJob(jid);
    edited->config.use_combiner = true;
    edited->config.num_reduce_tasks = 16;
    if (!out.Validate().ok()) edited->config = job.config;
  }
  return out;
}

/// HashString of everything a plain run and a job-by-job observed run of
/// `w` produce: stored datasets, dataflow, finish times, makespan and
/// observation, every value to the bit.
Result<uint64_t> RunDigest(const Workload& w) {
  STUBBY_ASSIGN_OR_RETURN(ExecObservables run, RunWorkload(w, nullptr));
  STUBBY_ASSIGN_OR_RETURN(Observed observed, ObserveWorkload(w, nullptr));
  return HashString(run.stored + run.dataflow + run.finish +
                    StrFormat("makespan %a\n", run.makespan) +
                    observed.observation + observed.dataflow);
}

Workload FixtureWorkload(const std::string& name, WorkflowFactory& f) {
  return Workload{name, name, f.plan(), f.dfs(), 0};
}

/// Pins the executor's outputs to recorded bits, so a change to the data
/// path is checked against the executor before it, not only against
/// itself at another thread count. Each digest covers every dataset a run
/// wrote in stored order, every job's dataflow and finish time, the
/// makespan and the observation (see RunDigest). The values were read from
/// the executor that still copied each input row into every pipeline,
/// copied combine groups, counted K2 groups in a std::set and sorted whole
/// rows with CompareOnFields.
TEST(WorkflowRunnerTest, OutputsMatchRecordedBits) {
  const std::map<std::string, uint64_t> recorded = {
      {"IR", 0x6213870828382ec9ULL},
      {"IR+c16", 0x08706f73d7ae0875ULL},
      {"SN", 0x664176aa9fec1c29ULL},
      {"SN+c16", 0xc17690cb8c4dc6e5ULL},
      {"LA", 0x85736a8cec98ac23ULL},
      {"LA+c16", 0x11641ebbbd47e930ULL},
      {"WG", 0x9ec3c4c1b5096efeULL},
      {"WG+c16", 0x24cf4b96419a187dULL},
      {"BA", 0x1a5167cd79d3084bULL},
      {"BA+c16", 0xb1c93a2524d590a3ULL},
      {"BR", 0xa29dd8eda4659a33ULL},
      {"BR+c16", 0x066a425fbdf3de52ULL},
      {"PJ", 0x09e466ff6c02683dULL},
      {"PJ+c16", 0x3f3f9b99bd19f95fULL},
      {"US", 0x6497b6638928da57ULL},
      {"US+c16", 0x849e0ef21b8e2740ULL},
      {"chain", 0x2a32f1f6a4845cd2ULL},
      {"chain+combiner", 0x4c4988cf5d790757ULL},
      {"siblings", 0x43fa444243664be8ULL},
  };
  std::vector<Workload> cases;
  for (const std::string& abbr : AllWorkloadAbbrs()) {
    WorkloadOptions wopts;
    wopts.sample_rows = 3000;
    auto w = MakeWorkload(abbr, wopts);
    ASSERT_TRUE(w.ok()) << abbr;
    Workload tuned = *w;
    tuned.abbr = abbr + "+c16";
    tuned.plan = WithCombinerAnd16Reducers(w->plan);
    cases.push_back(std::move(*w));
    cases.push_back(std::move(tuned));
  }
  auto chain = MakeChain();
  ASSERT_TRUE(chain.ok());
  for (bool combine : {false, true}) {
    (*chain->plan().GetMutableJob("Jp"))->config.use_combiner = combine;
    cases.push_back(
        FixtureWorkload(combine ? "chain+combiner" : "chain", *chain));
  }
  auto siblings = MakeSiblings();
  ASSERT_TRUE(siblings.ok());
  cases.push_back(FixtureWorkload("siblings", *siblings));

  for (const Workload& w : cases) {
    auto digest = RunDigest(w);
    ASSERT_TRUE(digest.ok()) << w.abbr << ": " << digest.status();
    EXPECT_EQ(StrFormat("0x%016llxULL",
                        static_cast<unsigned long long>(*digest)),
              StrFormat("0x%016llxULL", static_cast<unsigned long long>(
                                            recorded.at(w.abbr))))
        << w.abbr;
  }
}

TEST(JobRunnerTest, OutputDatasetInheritsLogicalScale) {
  auto f = MakeChain(1000, 10, 5, /*logical_bytes=*/64 * testing::kGB);
  ASSERT_TRUE(f.ok());
  Dfs result;
  RunOn(*f, f->plan(), &result);
  auto mid = result.Get("MID");
  ASSERT_TRUE(mid.ok());
  EXPECT_GT((*mid)->logical_scale(), 100.0);  // inherited from the base
}

}  // namespace
}  // namespace stubby
