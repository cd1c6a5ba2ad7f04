// Tests for src/reuse/: content-addressed signatures, the ResultStore, the
// ReuseRewriter, and the session loop's bit-identity contract (with reuse
// enabled, final workflow outputs are bit-identical to a recompute from
// scratch at any thread count).

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/threading.h"
#include "optimizer/transform.h"
#include "reuse/result_store.h"
#include "reuse/rewriter.h"
#include "reuse/session.h"
#include "reuse/signature.h"
#include "test_workflows.h"
#include "workloads/registry.h"
#include "workloads/udfs.h"

namespace stubby {
namespace {

using ::stubby::testing::kGB;

// --- fixtures --------------------------------------------------------------

std::vector<Row> BaseRows(int rows = 3000, uint64_t seed = 11) {
  Rng rng(seed);
  std::vector<Row> data;
  for (int i = 0; i < rows; ++i) {
    data.push_back(Row{rng.NextInt(0, 99), rng.NextDouble(0, 10)});
  }
  return data;
}

// A map-only workflow over base <K, V>: filter (and optionally a second
// projection stage), with caller-chosen vertex names so tests can verify
// that identity is content-based, not name-based.
Result<WorkflowFactory> MakeMapOnly(const std::string& base_id,
                                    const std::string& job_id,
                                    const std::string& out_id,
                                    int num_stages) {
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema s({"K", "V"});
  STUBBY_RETURN_NOT_OK(
      f.AddBase(base_id, s, Layout{}, 6, BaseRows(), 4 * kGB));
  std::vector<Stage> stages = {
      Stage::Map(FilterRangeMap("keep_mid", s, "V", 2.0, 9.0))};
  Schema out_schema = s;
  if (num_stages > 1) {
    stages.push_back(Stage::Map(ProjectMap("just_k", s, {"K"})));
    out_schema = Schema({"K"});
  }
  STUBBY_RETURN_NOT_OK(
      f.AddDataset(out_id, out_schema, /*workflow_output=*/true));
  WorkflowFactory::JobDef j;
  j.id = job_id;
  j.inputs = {In(base_id, std::move(stages))};
  j.map_output_schema = out_schema;
  j.output = out_id;
  STUBBY_RETURN_NOT_OK(f.AddJob(std::move(j)));
  return f;
}

// A two-job chain whose *first* job is identical across variants and whose
// second differs: the whole-job reuse scenario (workflow B resubmits
// workflow A's producer under new names with a different consumer).
Result<WorkflowFactory> MakeChainVariant(const std::string& suffix,
                                         bool group_by_z) {
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Rng rng(21);
  Schema in_schema({"K", "Z", "V"});
  std::vector<Row> data;
  for (int i = 0; i < 4000; ++i) {
    data.push_back(Row{rng.NextInt(0, 49), rng.NextInt(0, 39),
                       rng.NextDouble(0, 10)});
  }
  STUBBY_RETURN_NOT_OK(f.AddBase("IN" + suffix, in_schema, Layout{}, 8,
                                 std::move(data), 16 * kGB));
  Schema mid({"K", "Z", "S"});
  STUBBY_RETURN_NOT_OK(f.AddDataset("MID" + suffix, mid));
  {
    WorkflowFactory::JobDef j;
    j.id = "Jp" + suffix;
    j.inputs = {In("IN" + suffix, {})};
    j.map_output_schema = in_schema;
    j.reduce_stages = {Stage::Reduce(
        AggReduce("sum_kz", in_schema, {"K", "Z"}, {{"V", AggOp::kSum, "S"}}),
        {"K", "Z"})};
    j.output = "MID" + suffix;
    STUBBY_RETURN_NOT_OK(f.AddJob(std::move(j)));
  }
  {
    WorkflowFactory::JobDef j;
    j.id = "Jc" + suffix;
    j.inputs = {In("MID" + suffix, {})};
    j.map_output_schema = mid;
    std::vector<std::string> group = group_by_z
                                         ? std::vector<std::string>{"Z"}
                                         : std::vector<std::string>{"K"};
    j.reduce_stages = {Stage::Reduce(
        AggReduce(group_by_z ? "sum_z" : "sum_k", mid, group,
                  {{"S", AggOp::kSum, "T"}}),
        group)};
    std::string out = "OUT" + suffix;
    STUBBY_RETURN_NOT_OK(f.AddDataset(out, j.reduce_stages[0].output_schema(),
                                      /*workflow_output=*/true));
    j.output = out;
    STUBBY_RETURN_NOT_OK(f.AddJob(std::move(j)));
  }
  return f;
}

// Structural-transform-free options: optimized plans equal input plans, so
// job reuse keys are predictable across variants.
StubbyOptions PlainOptions() {
  StubbyOptions opts;
  opts.enable_intra_vertical = false;
  opts.enable_inter_vertical = false;
  opts.enable_horizontal = false;
  opts.enable_partition_function = false;
  opts.enable_configuration = false;
  return opts;
}

DatasetPtr MakeStored(const std::string& id, int rows, uint64_t seed = 3) {
  auto ds = std::make_shared<StoredDataset>(id, Schema({"K", "V"}), Layout{});
  Rng rng(seed);
  std::vector<Row> part;
  for (int i = 0; i < rows; ++i) {
    part.push_back(Row{rng.NextInt(0, 9), rng.NextDouble(0, 1)});
  }
  ds->AddPartition(std::move(part));
  return ds;
}

// --- prune canonicalization (bugfix sweep) ---------------------------------

TEST(PruneCanonicalTest, SortsAndDeduplicates) {
  EXPECT_EQ(CanonicalPrunePartitions({2, 1, 2, 0}),
            (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(CanonicalPrunePartitions({}).empty());
}

TEST(PruneCanonicalTest, ScanGroupingMergesPermutedPruneLists) {
  // {1,2} and {2,1,1} select the same partition set; before the fix they
  // produced two physical scans of the same data.
  JobVertex job;
  job.id = "J";
  Branch b1;
  b1.tag = "a";
  BranchInput in1;
  in1.dataset_id = "D";
  in1.prune_partitions = {1, 2};
  b1.inputs = {in1};
  b1.output_dataset = "O1";
  Branch b2 = b1;
  b2.tag = "b";
  b2.inputs[0].prune_partitions = {2, 1, 1};
  b2.output_dataset = "O2";
  job.branches = {b1, b2};
  auto groups = GroupBranchInputs(job);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].prune_partitions, (std::vector<int>{1, 2}));
  EXPECT_EQ(groups[0].subscribers.size(), 2u);
}

// --- signatures ------------------------------------------------------------

TEST(SignatureTest, VertexNamesDoNotEnterIdentity) {
  auto fa = MakeMapOnly("B", "J1", "OUT", 2);
  auto fb = MakeMapOnly("BASE_X", "JOB_Y", "RESULT_Z", 2);
  ASSERT_TRUE(fa.ok() && fb.ok());
  auto la = ComputeLineage(fa->plan(), fa->dfs());
  auto lb = ComputeLineage(fb->plan(), fb->dfs());
  ASSERT_TRUE(la.ok() && lb.ok());
  ASSERT_EQ(la->jobs.size(), 1u);
  ASSERT_EQ(lb->jobs.size(), 1u);
  EXPECT_EQ(la->jobs.at("J1"), lb->jobs.at("JOB_Y"));
  EXPECT_EQ(la->datasets.at("OUT"), lb->datasets.at("RESULT_Z"));
}

TEST(SignatureTest, RestrictedLineageMatchesUnrestrictedOnTheClosure) {
  WorkloadOptions options;
  options.sample_rows = 2000;
  auto w = MakeWorkload("BR", options);
  ASSERT_TRUE(w.ok()) << w.status();
  auto full = ComputeLineage(w->plan, w->dfs);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_EQ(full->jobs.size(), w->plan.num_jobs());

  size_t strict_subsets = 0;
  for (const auto& [scope_job, unused] : w->plan.jobs()) {
    SCOPED_TRACE("scope=" + scope_job);
    auto closure = UpstreamJobClosure(w->plan, {scope_job});
    ASSERT_TRUE(closure.ok()) << closure.status();
    auto restricted = ComputeLineage(w->plan, w->dfs, nullptr, &*closure);
    ASSERT_TRUE(restricted.ok()) << restricted.status();
    if (closure->size() < w->plan.num_jobs()) ++strict_subsets;
    for (const auto& [jid, key] : full->jobs) {
      if (closure->count(jid)) {
        ASSERT_EQ(restricted->jobs.count(jid), 1u) << jid;
        EXPECT_EQ(restricted->jobs.at(jid), key) << jid;
      } else {
        EXPECT_EQ(restricted->jobs.count(jid), 0u) << jid;
      }
    }
  }
  EXPECT_GT(strict_subsets, 0u);  // the restriction was exercised
}

TEST(SignatureTest, ConfigurationAndContentEnterIdentity) {
  auto fa = MakeMapOnly("B", "J1", "OUT", 1);
  ASSERT_TRUE(fa.ok());
  auto base = ComputeLineage(fa->plan(), fa->dfs());
  ASSERT_TRUE(base.ok());

  // Different job configuration -> different key.
  Plan tweaked = fa->plan();
  (*tweaked.GetMutableJob("J1"))->config.split_mb += 32;
  auto lt = ComputeLineage(tweaked, fa->dfs());
  ASSERT_TRUE(lt.ok());
  EXPECT_NE(base->jobs.at("J1"), lt->jobs.at("J1"));

  // Different base-input content -> different key.
  Dfs other_dfs = fa->dfs();
  auto stored = other_dfs.Get("B");
  ASSERT_TRUE(stored.ok());
  DatasetPtr changed = CloneDataset(**stored, "B");
  changed->AddPartition({Row{int64_t{1}, 0.5}});
  other_dfs.PutOrReplace(changed);
  auto lc = ComputeLineage(fa->plan(), other_dfs);
  ASSERT_TRUE(lc.ok());
  EXPECT_NE(base->jobs.at("J1"), lc->jobs.at("J1"));
}

TEST(SignatureTest, MapOnlyBranchIgnoresInertPartitionSpec) {
  // Leftover partition specs on a map-only branch are never executed, so
  // they must not split identities (bugfix sweep: logically-equal jobs got
  // distinct keys).
  auto f = MakeMapOnly("B", "J1", "OUT", 1);
  ASSERT_TRUE(f.ok());
  auto base = ComputeLineage(f->plan(), f->dfs());
  ASSERT_TRUE(base.ok());
  Plan tweaked = f->plan();
  JobVertex* job = *tweaked.GetMutableJob("J1");
  ASSERT_TRUE(job->branches[0].map_only());
  job->branches[0].partition.partition_fields = {"K"};
  auto lt = ComputeLineage(tweaked, f->dfs());
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(base->jobs.at("J1"), lt->jobs.at("J1"));
}

TEST(SignatureTest, PruneListOrderDoesNotEnterIdentity) {
  auto f = MakeMapOnly("B", "J1", "OUT", 1);
  ASSERT_TRUE(f.ok());
  Plan a = f->plan();
  (*a.GetMutableJob("J1"))->branches[0].inputs[0].prune_partitions = {2, 1};
  Plan b = f->plan();
  (*b.GetMutableJob("J1"))->branches[0].inputs[0].prune_partitions = {1, 2, 2};
  auto la = ComputeLineage(a, f->dfs());
  auto lb = ComputeLineage(b, f->dfs());
  ASSERT_TRUE(la.ok() && lb.ok());
  EXPECT_EQ(la->jobs.at("J1"), lb->jobs.at("J1"));
}

TEST(SignatureTest, ReuseKeysMatchRecordedBits) {
  // A store saved by one build must keep serving hits in the next, so the
  // keys it files results under are pinned here. The plan is built by hand
  // from integer and string rows: no libm result reaches a key.
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Schema in_schema({"K", "S"});
  std::vector<Row> rows;
  for (int64_t i = 0; i < 12; ++i) {
    rows.push_back(Row{i % 4, std::string("s") + std::to_string(i)});
  }
  ASSERT_TRUE(f.AddBase("B", in_schema, Layout{}, 2, std::move(rows),
                        kGB).ok());
  Schema counts({"K", "N"});
  ASSERT_TRUE(f.AddDataset("MID", counts).ok());
  ASSERT_TRUE(f.AddDataset("OUT", Schema({"K"}), /*workflow_output=*/true)
                  .ok());
  WorkflowFactory::JobDef count;
  count.id = "Jcount";
  count.inputs = {In("B", {})};
  count.map_output_schema = in_schema;
  count.reduce_stages = {Stage::Reduce(
      AggReduce("count_k", in_schema, {"K"}, {{"S", AggOp::kCount, "N"}}),
      {"K"})};
  count.output = "MID";
  count.config.num_reduce_tasks = 3;
  ASSERT_TRUE(f.AddJob(std::move(count)).ok());
  WorkflowFactory::JobDef project;
  project.id = "Jproject";
  project.inputs = {In("MID", {Stage::Map(ProjectMap("just_k", counts,
                                                      {"K"}))})};
  project.map_output_schema = Schema({"K"});
  project.output = "OUT";
  ASSERT_TRUE(f.AddJob(std::move(project)).ok());
  const Plan& plan = f.plan();
  ASSERT_TRUE(plan.Validate().ok());

  auto base = f.dfs().Get("B");
  ASSERT_TRUE(base.ok());
  std::map<std::string, CostKey> datasets;
  datasets["B"] = DatasetContentKey(**base);
  EXPECT_EQ(CostKeyToHex(datasets["B"]), "0d5e5154cfffb40c09a23a7106009930");
  auto count_key = JobReuseKey(**plan.GetJob("Jcount"), plan, datasets);
  ASSERT_TRUE(count_key.ok()) << count_key.status();
  EXPECT_EQ(CostKeyToHex(*count_key), "d31f0ef7e4e41a374c8d278ba1a2f24f");
  datasets["MID"] = JobOutputKey(*count_key, 0);
  auto project_key = JobReuseKey(**plan.GetJob("Jproject"), plan, datasets);
  ASSERT_TRUE(project_key.ok()) << project_key.status();
  EXPECT_EQ(CostKeyToHex(*project_key), "ad0d9803cd9f233584108235daa82d54");
  const CostKey salt = ReuseSaltFromOptions(StubbyOptions{});
  EXPECT_EQ(CostKeyToHex(salt), "80ca48d89784aacf86e8ab068117283a");
  EXPECT_EQ(CostKeyToHex(WorkflowOutputKey(JobOutputKey(*project_key, 0),
                                           salt)),
            "3d304282e020dbc3aba93cfdd8e8719a");
  // The lineage pass derives the same keys.
  auto lineage = ComputeLineage(plan, f.dfs());
  ASSERT_TRUE(lineage.ok()) << lineage.status();
  EXPECT_EQ(lineage->datasets.at("B"), datasets["B"]);
  EXPECT_EQ(lineage->jobs.at("Jcount"), *count_key);
  EXPECT_EQ(lineage->jobs.at("Jproject"), *project_key);
}

// --- the store -------------------------------------------------------------

TEST(ResultStoreTest, RegisterLookupAndSharedSnapshots) {
  ResultStore store;
  DatasetPtr ds = MakeStored("x", 50);
  CostKey k1{1, 2}, k2{3, 4};
  std::string snap = store.Register(
      *ds, {{k1, ReuseKind::kJobOutput}, {k2, ReuseKind::kWorkflowOutput}});
  EXPECT_EQ(store.num_entries(), 2u);
  EXPECT_EQ(store.num_snapshots(), 1u);  // both keys share one snapshot
  EXPECT_EQ(store.Peek(k1)->snapshot_id, snap);
  EXPECT_EQ(store.Peek(k1)->hits, 0u);
  EXPECT_NE(store.Lookup(k2), nullptr);
  EXPECT_EQ(store.Peek(k2)->hits, 1u);
  EXPECT_EQ(store.total_hits(), 1u);

  // First registration wins; re-registering under the same key is a no-op.
  DatasetPtr other = MakeStored("y", 10, /*seed=*/99);
  std::string again = store.Register(*other, {{k1, ReuseKind::kJobOutput}});
  EXPECT_EQ(again, snap);
  EXPECT_EQ(store.num_snapshots(), 1u);

  auto opened = store.OpenSnapshot(snap);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(RowsBitIdentical((*opened)->AllRows(), ds->AllRows()));
}

TEST(ResultStoreTest, BudgetEvictionIsLruAndDeterministic) {
  DatasetPtr ds = MakeStored("x", 100);
  ResultStore::Options opts;
  opts.byte_budget = ds->raw_bytes() * 2;  // room for two snapshots
  ResultStore a(opts), b(opts);
  for (ResultStore* s : {&a, &b}) {
    s->Register(*ds, {{CostKey{1, 0}, ReuseKind::kJobOutput}});
    s->Register(*ds, {{CostKey{2, 0}, ReuseKind::kJobOutput}});
    s->Lookup(CostKey{1, 0});  // make key 2 the LRU victim
    s->Register(*ds, {{CostKey{3, 0}, ReuseKind::kJobOutput}});
  }
  EXPECT_EQ(a.num_entries(), 2u);
  EXPECT_EQ(a.evictions(), 1u);
  EXPECT_EQ(a.Peek(CostKey{2, 0}), nullptr);  // LRU evicted
  EXPECT_NE(a.Peek(CostKey{1, 0}), nullptr);
  EXPECT_NE(a.Peek(CostKey{3, 0}), nullptr);
  EXPECT_LE(a.stored_bytes(), opts.byte_budget);
  // Identical call sequences produce byte-identical stores.
  EXPECT_EQ(a.Serialize(), b.Serialize());
}

TEST(ResultStoreTest, ExactFractionCompareSurvives128BitOperands) {
  using u128 = unsigned __int128;
  EXPECT_EQ(ExactFractionCompare(1, 3, 2, 5), -1);
  EXPECT_EQ(ExactFractionCompare(2, 5, 1, 3), 1);
  EXPECT_EQ(ExactFractionCompare(2, 4, 3, 6), 0);
  EXPECT_EQ(ExactFractionCompare(7, 2, 5, 2), 1);
  EXPECT_EQ(ExactFractionCompare(0, 7, 0, 11), 0);
  // Regression: operands where naive cross-multiplication wraps mod 2^128.
  // Both cross products here are ≡ 0 (mod 2^128), which would falsely
  // report a tie, yet the fractions differ by a factor of 2^125.
  const u128 big = u128{1} << 127;
  EXPECT_EQ(ExactFractionCompare(big, 4, big >> 1, big >> 1), 1);
  EXPECT_EQ(ExactFractionCompare(big >> 1, big >> 1, big, 4), -1);
  // Near-equal giants exercise the continued-fraction descent:
  // 1 + 1/(2^127-1)  <  1 + 1/(2^127-2).
  EXPECT_EQ(ExactFractionCompare(big, big - 1, big - 1, big - 2), -1);
  EXPECT_EQ(ExactFractionCompare(big - 1, big - 2, big, big - 1), 1);
  EXPECT_EQ(ExactFractionCompare(big, big - 1, big, big - 1), 0);
}

TEST(ResultStoreTest, EvictionNeverCollectsPinnedSnapshots) {
  // Satellite regression: a snapshot referenced by a live (rewritten) plan
  // is pinned by the session; eviction must never delete it, however tight
  // the budget gets.
  DatasetPtr ds = MakeStored("x", 100);
  ResultStore::Options opts;
  opts.byte_budget = ds->raw_bytes();  // exactly one snapshot fits
  ResultStore store(opts);
  CostKey pinned_key{1, 0};
  std::string snap =
      store.Register(*ds, {{pinned_key, ReuseKind::kJobOutput}});
  store.Pin(snap);
  store.Register(*ds, {{CostKey{2, 0}, ReuseKind::kJobOutput}});
  // The unpinned entry was evicted; the pinned one survives over-budget.
  EXPECT_EQ(store.Peek(CostKey{2, 0}), nullptr);
  ASSERT_NE(store.Peek(pinned_key), nullptr);
  EXPECT_TRUE(store.OpenSnapshot(snap).ok());
  // Once unpinned, the next registration may finally evict it.
  store.Unpin(snap);
  store.Register(*ds, {{CostKey{3, 0}, ReuseKind::kJobOutput}});
  EXPECT_EQ(store.Peek(pinned_key), nullptr);
  EXPECT_FALSE(store.OpenSnapshot(snap).ok());
}

TEST(DfsTest, CollectDropsExactlyTheNonLiveDatasets) {
  Dfs dfs;
  dfs.PutOrReplace(MakeStored("a", 5));
  dfs.PutOrReplace(MakeStored("b", 5));
  dfs.PutOrReplace(MakeStored("c", 5));
  std::vector<std::string> collected = dfs.Collect({"b"});
  EXPECT_EQ(collected, (std::vector<std::string>{"a", "c"}));
  EXPECT_TRUE(dfs.Exists("b"));
  EXPECT_FALSE(dfs.Exists("a"));
  EXPECT_EQ(dfs.size(), 1u);
}

TEST(ResultStoreTest, CatalogRoundTripPreservesKeysAndCounters) {
  ResultStore store;
  DatasetPtr ds = MakeStored("x", 40);
  CostKey k1{0x0123456789abcdefull, 0xfedcba9876543210ull};
  CostKey k2{7, 0};
  store.Register(*ds, {{k1, ReuseKind::kMapStream}});
  store.Register(*MakeStored("y", 10, 5), {{k2, ReuseKind::kJobOutput}});
  store.Lookup(k1);

  auto restored = ResultStore::Deserialize(store.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->Serialize(), store.Serialize());
  ASSERT_NE(restored->Peek(k1), nullptr);
  EXPECT_EQ(restored->Peek(k1)->hits, 1u);
  EXPECT_EQ(restored->Peek(k1)->kind, ReuseKind::kMapStream);
  auto snap = restored->OpenSnapshot(restored->Peek(k1)->snapshot_id);
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE(RowsBitIdentical((*snap)->AllRows(), ds->AllRows()));
  EXPECT_FALSE(ResultStore::Deserialize("{\"format\":\"nope\"}").ok());
}

TEST(ResultStoreTest, CatalogWithLoweredNextSnapshotIsRejected) {
  // A next_snapshot at or below a live snapshot's ordinal would make the
  // next Register mint that id again and overwrite the live snapshot.
  ResultStore store;
  store.Register(*MakeStored("x", 40), {{CostKey{1, 1}, ReuseKind::kJobOutput}});
  Json doc = store.ToJson();
  ASSERT_EQ(doc.GetNumber("next_snapshot"), 1.0);
  ASSERT_TRUE(ResultStore::FromJson(doc).ok());
  doc["next_snapshot"] = 0;
  auto loaded = ResultStore::FromJson(doc);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // Snapshot ids other than the canonical rs/<n> are refused as well.
  std::string renamed = store.Serialize();
  for (size_t at = renamed.find("\"rs/0\""); at != std::string::npos;
       at = renamed.find("\"rs/0\"", at)) {
    renamed.replace(at, 6, "\"rs/00\"");
  }
  ASSERT_NE(renamed.find("\"rs/00\""), std::string::npos);
  EXPECT_FALSE(ResultStore::Deserialize(renamed).ok());

  // So is a second snapshot under a live id: loading it would replace the
  // first snapshot's rows under every entry that references it.
  Json duplicated = store.ToJson();
  Json snapshots = *duplicated.Find("snapshots");
  snapshots.Append(snapshots.items()[0]);
  duplicated["snapshots"] = std::move(snapshots);
  EXPECT_FALSE(ResultStore::FromJson(duplicated).ok());
}

TEST(ResultStoreTest, CatalogWithNegativeCounterIsRejected) {
  ResultStore store;
  store.Register(*MakeStored("x", 40), {{CostKey{1, 1}, ReuseKind::kJobOutput}});
  Json doc = store.ToJson();
  doc["clock"] = -1;
  auto loaded = ResultStore::FromJson(doc);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  // Fractional and out-of-range values are refused too, entry fields alike.
  for (double bad : {2.5, -0.5, 1e30}) {
    Json fractional = store.ToJson();
    fractional["evictions"] = bad;
    EXPECT_FALSE(ResultStore::FromJson(fractional).ok()) << bad;
  }
  std::string text = store.Serialize();
  const size_t hits = text.find("\"hits\": 0");
  ASSERT_NE(hits, std::string::npos);
  text.replace(hits, 9, "\"hits\": 0.5");
  EXPECT_FALSE(ResultStore::Deserialize(text).ok());
}

TEST(ResultStoreTest, CatalogWithShortRowIsRejected) {
  // Stored rows are indexed by schema position without bounds checks (by
  // UDFs over a staged snapshot, and as served workflow outputs), so a row
  // narrower than its snapshot's schema must not load.
  ResultStore store;
  store.Register(*MakeStored("x", 40), {{CostKey{1, 1}, ReuseKind::kJobOutput}});
  Json doc = store.ToJson();
  ASSERT_TRUE(ResultStore::FromJson(doc).ok());

  const Json& snapshot = doc.Find("snapshots")->items()[0];
  const Json& rows = snapshot.Find("partitions")->items()[0];
  ASSERT_GT(rows.size(), 3u);
  Json part = Json::Array();
  for (size_t r = 0; r < rows.size(); ++r) {
    if (r != 3) {
      part.Append(rows.items()[r]);
      continue;
    }
    Json short_row = Json::Array();
    short_row.Append(rows.items()[r].items()[0]);  // K only, V dropped
    part.Append(std::move(short_row));
  }
  Json parts = Json::Array();
  parts.Append(std::move(part));
  Json corrupted_snapshot = snapshot;
  corrupted_snapshot["partitions"] = std::move(parts);
  Json snapshots = Json::Array();
  snapshots.Append(std::move(corrupted_snapshot));
  doc["snapshots"] = std::move(snapshots);

  auto loaded = ResultStore::FromJson(doc);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find("'rs/0'"), std::string::npos) << message;
  EXPECT_NE(message.find("partition 0 row 3"), std::string::npos) << message;
}

// --- rewriting + session bit-identity --------------------------------------

TEST(ReuseRewriterTest, NoHitsLeavesPlanBitIdentical) {
  auto f = MakeMapOnly("B", "J1", "OUT", 2);
  ASSERT_TRUE(f.ok());
  ResultStore store;
  ReuseRewriter rewriter(&store, &f->dfs());
  auto result = rewriter.Rewrite(f->plan());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->changed);
  EXPECT_EQ(result->stats.whole_job_hits, 0u);
  EXPECT_EQ(PlanSignature(result->plan), PlanSignature(f->plan()));
  EXPECT_EQ(result->plan.ToString(), f->plan().ToString());
}

TEST(ReuseRewriterTest, MapPrefixLadderTakesLongestStoredPrefix) {
  // Store Q1 = [filter], then probe Q2 = [filter, project] over equal base
  // content: the tier-2b ladder misses at k = 2 and hits at k = 1.
  auto q1 = MakeMapOnly("B", "J1", "OUT1", 1);
  auto q2 = MakeMapOnly("BB", "J2", "OUT2", 2);
  ASSERT_TRUE(q1.ok() && q2.ok());
  ResultStore store;
  ReuseSession session(&store);
  auto r1 = session.Run(q1->plan(), q1->dfs(), StubbyOptions{});
  ASSERT_TRUE(r1.ok()) << r1.status();

  auto lineage = ComputeLineage(q2->plan(), q2->dfs());
  ASSERT_TRUE(lineage.ok()) << lineage.status();
  const BranchInput& original =
      (*q2->plan().GetJob("J2"))->branches[0].inputs[0];
  const CostKey input = lineage->datasets.at("BB");
  const CostKey k1 = MapStreamKey(input, original.map_stages, 1);
  EXPECT_EQ(store.Peek(MapStreamKey(input, original.map_stages, 2)), nullptr);
  ASSERT_NE(store.Peek(k1), nullptr);

  ReuseRewriter rewriter(&store, &q2->dfs());
  auto probe = rewriter.PlanForScope(q2->plan(), nullptr, nullptr);
  ASSERT_TRUE(probe.ok()) << probe.status();
  EXPECT_TRUE(probe->changed);
  EXPECT_EQ(probe->stats.whole_job_hits, 0u);
  EXPECT_EQ(probe->stats.prefix_hits, 1u);
  // J2's whole-job probe, then the ladder's k = 2 miss and k = 1 hit.
  EXPECT_EQ(probe->stats.lookups, 3u) << probe->stats.ToString();
  const std::string scan = "reuse:" + CostKeyToHex(k1);
  ASSERT_EQ(probe->materialized_lineage.count(scan), 1u);
  EXPECT_EQ(probe->materialized_lineage.at(scan), k1);
  const BranchInput& rewired =
      (*probe->plan.GetJob("J2"))->branches[0].inputs[0];
  EXPECT_EQ(rewired.dataset_id, scan);
  ASSERT_EQ(rewired.map_stages.size(), 1u);
  EXPECT_EQ(rewired.map_stages[0].name(), original.map_stages[1].name());
}

TEST(ReuseSessionTest, RepeatedWorkflowIsElidedWholesale) {
  auto f = MakeMapOnly("B", "J1", "OUT", 1);
  ASSERT_TRUE(f.ok());
  ResultStore store;
  ReuseSession session(&store);
  StubbyOptions opts;  // default option set, salt included in terminal keys

  auto first = session.Run(f->plan(), f->dfs(), opts);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->report.reuse_materialized);
  EXPECT_GT(first->reuse.registered, 0u);

  auto second = session.Run(f->plan(), f->dfs(), opts);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->report.reuse_materialized);
  EXPECT_GE(second->reuse.workflow_hits, 1u);
  EXPECT_EQ(second->report.plan.num_jobs(), 0u);
  ASSERT_EQ(second->outputs.count("OUT"), 1u);
  EXPECT_TRUE(
      RowsBitIdentical(second->outputs.at("OUT"), first->outputs.at("OUT")));

  // A different option set must not match the stored terminals.
  StubbyOptions other = opts;
  other.unit.seed += 1;
  EXPECT_NE(ReuseSaltFromOptions(opts), ReuseSaltFromOptions(other));
  auto third = session.Run(f->plan(), f->dfs(), other);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->report.reuse_materialized);
}

TEST(ReuseSessionTest, MapPrefixReuseIsBitIdenticalAtAnyThreadCount) {
  // Q1 = [filter], Q2 = [filter, project] over identical base content (under
  // different vertex names): running Q2 after Q1 must reuse Q1's stream as
  // the length-1 prefix and still produce recompute-identical bits.
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    auto q1 = MakeMapOnly("B", "J1", "OUT1", 1);
    auto q2 = MakeMapOnly("BB", "J2", "OUT2", 2);
    ASSERT_TRUE(q1.ok() && q2.ok());
    StubbyOptions opts;

    ReuseSession recompute(nullptr);
    auto baseline = recompute.Run(q2->plan(), q2->dfs(), opts, &pool);
    ASSERT_TRUE(baseline.ok()) << baseline.status();

    ResultStore store;
    ReuseSession session(&store);
    auto r1 = session.Run(q1->plan(), q1->dfs(), opts, &pool);
    ASSERT_TRUE(r1.ok()) << r1.status();
    auto r2 = session.Run(q2->plan(), q2->dfs(), opts, &pool);
    ASSERT_TRUE(r2.ok()) << r2.status();

    EXPECT_GE(r2->reuse.prefix_hits, 1u) << r2->reuse.ToString();
    EXPECT_GT(r2->reuse.bytes_saved, 0u);
    ASSERT_EQ(r2->outputs.count("OUT2"), 1u);
    EXPECT_TRUE(RowsBitIdentical(r2->outputs.at("OUT2"),
                                 baseline->outputs.at("OUT2")));
  }
}

TEST(ReuseSessionTest, SuccessfulWarmRunReleasesEveryPin) {
  // Regression: the session's pin releaser must observe the pinned-snapshot
  // list, not a pointer into the result that `return` has already moved
  // from — otherwise every successful warm run leaks its pins and the byte
  // budget is silently defeated (EnforceBudget skips pinned entries).
  auto q1 = MakeMapOnly("B", "J1", "OUT1", 1);
  auto q2 = MakeMapOnly("BB", "J2", "OUT2", 2);
  ASSERT_TRUE(q1.ok() && q2.ok());
  StubbyOptions opts;

  ResultStore store;
  ReuseSession session(&store);
  auto r1 = session.Run(q1->plan(), q1->dfs(), opts);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(store.num_pins(), 0u);

  auto r2 = session.Run(q2->plan(), q2->dfs(), opts);
  ASSERT_TRUE(r2.ok()) << r2.status();
  // The warm run reused a snapshot (so pins were taken during planning)...
  EXPECT_FALSE(r2->report.reuse_pinned.empty());
  // ...and released every one of them before returning.
  EXPECT_EQ(store.num_pins(), 0u);

  // With no pins outstanding, a tightened budget can evict everything.
  ResultStore::Options tight = store.options();
  tight.byte_budget = 1;
  store.set_options(tight);
  EXPECT_EQ(store.num_entries(), 0u);
}

TEST(ReuseSessionTest, WholeJobReuseAcrossWorkflowsIsBitIdentical) {
  // Workflow A and workflow B share their producer job (same computation,
  // different vertex names); B's consumer differs, so only whole-job reuse
  // applies — B's producer is elided and its consumer reads the snapshot.
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    auto wa = MakeChainVariant("_a", /*group_by_z=*/false);
    auto wb = MakeChainVariant("_b", /*group_by_z=*/true);
    ASSERT_TRUE(wa.ok() && wb.ok());
    StubbyOptions opts = PlainOptions();

    ReuseSession recompute(nullptr);
    auto baseline = recompute.Run(wb->plan(), wb->dfs(), opts, &pool);
    ASSERT_TRUE(baseline.ok()) << baseline.status();

    ResultStore store;
    ReuseSession session(&store);
    auto ra = session.Run(wa->plan(), wa->dfs(), opts, &pool);
    ASSERT_TRUE(ra.ok()) << ra.status();
    auto rb = session.Run(wb->plan(), wb->dfs(), opts, &pool);
    ASSERT_TRUE(rb.ok()) << rb.status();

    EXPECT_GE(rb->reuse.whole_job_hits, 1u) << rb->reuse.ToString();
    EXPECT_GE(rb->reuse.jobs_elided, 1u);
    EXPECT_LT(rb->report.plan.num_jobs(), wb->plan().num_jobs());
    ASSERT_EQ(rb->outputs.count("OUT_b"), 1u);
    EXPECT_TRUE(RowsBitIdentical(rb->outputs.at("OUT_b"),
                                 baseline->outputs.at("OUT_b")));
  }
}

TEST(ReuseSessionTest, HitsSurviveCatalogSaveAndReload) {
  // Key stability across serialization: a store saved after workflow A and
  // reloaded must still produce the same hits for workflow B.
  auto wa = MakeChainVariant("_a", false);
  auto wb = MakeChainVariant("_b", true);
  ASSERT_TRUE(wa.ok() && wb.ok());
  StubbyOptions opts = PlainOptions();

  ResultStore store;
  ReuseSession session(&store);
  auto ra = session.Run(wa->plan(), wa->dfs(), opts);
  ASSERT_TRUE(ra.ok());

  auto reloaded = ResultStore::Deserialize(store.Serialize());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  ReuseSession resumed(&*reloaded);
  auto rb = resumed.Run(wb->plan(), wb->dfs(), opts);
  ASSERT_TRUE(rb.ok()) << rb.status();
  EXPECT_GE(rb->reuse.whole_job_hits, 1u) << rb->reuse.ToString();
}

// --- benefit-weighted eviction ---------------------------------------------

TEST(ResultStoreTest, BenefitWeightedEvictionKeepsHotEntriesLruWouldDrop) {
  // A: small, hit often, but oldest recency. B: large, never hit, fresher.
  // LRU evicts A (recency only); the benefit policy evicts B (low
  // bytes-saved-per-raw-byte). Same call sequence, different victims.
  DatasetPtr small = MakeStored("small", 40);
  DatasetPtr big = MakeStored("big", 100);
  const uint64_t budget = big->raw_bytes() + small->raw_bytes();

  ResultStore lru({budget, EvictionPolicy::kLru});
  ResultStore benefit({budget, EvictionPolicy::kBenefitWeighted});
  CostKey a{1, 0}, b{2, 0}, c{3, 0};
  for (ResultStore* s : {&lru, &benefit}) {
    s->Register(*small, {{a, ReuseKind::kJobOutput}});
    for (int i = 0; i < 5; ++i) s->Lookup(a);
    s->Register(*big, {{b, ReuseKind::kJobOutput}});
    s->Register(*small, {{c, ReuseKind::kJobOutput}});  // over budget
  }
  EXPECT_EQ(lru.evictions(), 1u);
  EXPECT_EQ(lru.Peek(a), nullptr);  // oldest recency loses under LRU
  EXPECT_NE(lru.Peek(b), nullptr);

  EXPECT_EQ(benefit.evictions(), 1u);
  EXPECT_NE(benefit.Peek(a), nullptr);  // 6 hits on 40 rows: high benefit
  EXPECT_EQ(benefit.Peek(b), nullptr);  // 0 hits on 100 rows: victim
  EXPECT_NE(benefit.Peek(c), nullptr);
  EXPECT_LE(benefit.stored_bytes(), budget);

  // Identical call sequences replay to byte-identical stores.
  ResultStore replay({budget, EvictionPolicy::kBenefitWeighted});
  replay.Register(*small, {{a, ReuseKind::kJobOutput}});
  for (int i = 0; i < 5; ++i) replay.Lookup(a);
  replay.Register(*big, {{b, ReuseKind::kJobOutput}});
  replay.Register(*small, {{c, ReuseKind::kJobOutput}});
  EXPECT_EQ(replay.Serialize(), benefit.Serialize());
}

TEST(ResultStoreTest, BenefitEvictionTieBreaksOnOlderRecency) {
  // Equal benefit fractions: A has hits=1, age=1 (2/2); B has hits=0,
  // age=0 (1/1) at enforcement time — the tie goes to the older last_used.
  DatasetPtr ds = MakeStored("x", 50);
  ResultStore store;
  CostKey a{1, 0}, b{2, 0};
  store.Register(*ds, {{a, ReuseKind::kJobOutput}});  // clock 1
  store.Lookup(a);                                    // clock 2: hits=1
  store.Register(*ds, {{b, ReuseKind::kJobOutput}});  // clock 3
  store.set_options({ds->raw_bytes(), EvictionPolicy::kBenefitWeighted});
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.Peek(a), nullptr);  // older recency evicts on the tie
  EXPECT_NE(store.Peek(b), nullptr);
}

TEST(ResultStoreTest, PolicySurvivesSerialization) {
  ResultStore store({1234, EvictionPolicy::kBenefitWeighted});
  store.Register(*MakeStored("x", 5), {{CostKey{1, 0},
                                        ReuseKind::kJobOutput}});
  auto restored = ResultStore::Deserialize(store.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->options().byte_budget, 1234u);
  EXPECT_EQ(restored->options().policy, EvictionPolicy::kBenefitWeighted);
  EXPECT_EQ(restored->Serialize(), store.Serialize());
}

// --- file persistence --------------------------------------------------------

TEST(ResultStoreTest, FileRoundTripRestoresIdenticalHits) {
  // Save → reload through an actual file → the reloaded store produces the
  // same hits for the next workflow as the in-memory original would.
  auto wa = MakeChainVariant("_a", false);
  auto wb = MakeChainVariant("_b", true);
  ASSERT_TRUE(wa.ok() && wb.ok());
  StubbyOptions opts = PlainOptions();

  ResultStore store;
  ReuseSession session(&store);
  auto ra = session.Run(wa->plan(), wa->dfs(), opts);
  ASSERT_TRUE(ra.ok());

  const std::string path =
      ::testing::TempDir() + "/stubby_reuse_catalog_test.json";
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto reloaded = ResultStore::LoadFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->Serialize(), store.Serialize());

  auto in_memory = session.Run(wb->plan(), wb->dfs(), opts);
  ReuseSession resumed(&*reloaded);
  auto from_file = resumed.Run(wb->plan(), wb->dfs(), opts);
  ASSERT_TRUE(in_memory.ok() && from_file.ok());
  EXPECT_GE(from_file->reuse.whole_job_hits, 1u);
  EXPECT_EQ(from_file->reuse.ToString(), in_memory->reuse.ToString());
  ASSERT_EQ(from_file->outputs.count("OUT_b"), 1u);
  EXPECT_TRUE(RowsBitIdentical(from_file->outputs.at("OUT_b"),
                               in_memory->outputs.at("OUT_b")));

  EXPECT_FALSE(ResultStore::LoadFromFile(path + ".does-not-exist").ok());
}

TEST(ResultStoreTest, FailedSaveLeavesOldCatalogLoadable) {
  // Saves go through <path>.tmp + rename, so a save that dies mid-write
  // must never clobber the previous on-disk catalog. Simulate the failure
  // by squatting on the temp path with a directory: fopen("wb") fails, the
  // old file survives, and removing the obstruction makes saves work again.
  ResultStore store;
  store.Register(*MakeStored("x", 25),
                 {{CostKey{1, 0}, ReuseKind::kJobOutput}});
  const std::string path =
      ::testing::TempDir() + "/stubby_atomic_save_test.json";
  std::remove(path.c_str());
  ASSERT_TRUE(store.SaveToFile(path).ok());
  const std::string old_catalog = store.Serialize();

  ResultStore bigger;
  bigger.Register(*MakeStored("x", 25),
                  {{CostKey{1, 0}, ReuseKind::kJobOutput}});
  bigger.Register(*MakeStored("y", 40),
                  {{CostKey{2, 0}, ReuseKind::kJobOutput}});
  const std::string tmp = path + ".tmp";
  ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);
  EXPECT_FALSE(bigger.SaveToFile(path).ok());

  // The failed save left the previous catalog fully loadable.
  auto reloaded = ResultStore::LoadFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->Serialize(), old_catalog);

  ASSERT_EQ(::rmdir(tmp.c_str()), 0);
  ASSERT_TRUE(bigger.SaveToFile(path).ok());
  auto replaced = ResultStore::LoadFromFile(path);
  ASSERT_TRUE(replaced.ok()) << replaced.status();
  EXPECT_EQ(replaced->Serialize(), bigger.Serialize());
  std::remove(path.c_str());
}

// --- reuse-aware unit search -------------------------------------------------

TEST(ReuseSearchTest, AwareSearchPricesAndAppliesStoreHits) {
  // Default options: the unit search runs, probes the warm store while
  // costing candidates, prices the rewritten form, and picks it.
  auto q1 = MakeMapOnly("B", "J1", "OUT1", 1);
  auto q2 = MakeMapOnly("BB", "J2", "OUT2", 2);
  ASSERT_TRUE(q1.ok() && q2.ok());
  StubbyOptions opts;
  opts.reuse_whole_workflow = false;  // force the in-search path

  ResultStore store;
  ReuseSession session(&store);
  auto r1 = session.Run(q1->plan(), q1->dfs(), opts);
  ASSERT_TRUE(r1.ok()) << r1.status();
  auto r2 = session.Run(q2->plan(), q2->dfs(), opts);
  ASSERT_TRUE(r2.ok()) << r2.status();

  EXPECT_GT(r2->reuse.search_probes, 0u) << r2->reuse.ToString();
  EXPECT_GE(r2->reuse.search_priced, 1u);
  EXPECT_GE(r2->reuse.search_won, 1u);
  EXPECT_GE(r2->reuse.prefix_hits, 1u);
  bool logged = false;
  for (const std::string& line : r2->report.applied) {
    if (line.find("reuse:") != std::string::npos) logged = true;
  }
  EXPECT_TRUE(logged) << "no reuse entry in the transformation log";
}

TEST(ReuseSearchTest, ColdStoreSearchIsBitIdenticalToBlindSearch) {
  auto f = ::stubby::testing::MakeChain();
  ASSERT_TRUE(f.ok());
  ::stubby::testing::ProfileInPlace(&*f);

  StubbyOptions blind_opts;
  auto blind = StubbyOptimizer(blind_opts).Optimize(f->plan());
  ASSERT_TRUE(blind.ok());

  ResultStore store;  // empty: every probe misses
  StubbyOptions cold_opts;
  cold_opts.reuse_store = &store;
  cold_opts.reuse_dfs = &f->dfs();
  auto cold = StubbyOptimizer(cold_opts).Optimize(f->plan());
  ASSERT_TRUE(cold.ok());

  EXPECT_GT(cold->reuse.search_probes, 0u);
  EXPECT_EQ(cold->reuse.search_won, 0u);
  EXPECT_EQ(PlanSignature(cold->plan), PlanSignature(blind->plan));
  EXPECT_EQ(cold->estimated_cost, blind->estimated_cost);
  EXPECT_EQ(cold->applied, blind->applied);
}

TEST(ReuseSearchTest, AwareSearchNeverPricesAboveThePostHocPath) {
  // Warm the store with one profiled run, then optimize the same workflow
  // through the aware search and through the post-hoc rewrite: the aware
  // plan's estimated cost must never exceed the post-hoc plan's (the floor
  // guarantees it by construction).
  auto f = ::stubby::testing::MakeChain();
  ASSERT_TRUE(f.ok());
  ::stubby::testing::ProfileInPlace(&*f);

  ResultStore store;
  ReuseSession warmup(&store);
  StubbyOptions opts;
  opts.reuse_whole_workflow = false;
  auto first = warmup.Run(f->plan(), f->dfs(), opts);
  ASSERT_TRUE(first.ok()) << first.status();

  auto aware_store = ResultStore::Deserialize(store.Serialize());
  auto posthoc_store = ResultStore::Deserialize(store.Serialize());
  ASSERT_TRUE(aware_store.ok() && posthoc_store.ok());

  StubbyOptions aware_opts = opts;
  aware_opts.reuse_store = &*aware_store;
  aware_opts.reuse_dfs = &f->dfs();
  auto aware = StubbyOptimizer(aware_opts).Optimize(f->plan());
  ASSERT_TRUE(aware.ok());

  StubbyOptions posthoc_opts = aware_opts;
  posthoc_opts.reuse_store = &*posthoc_store;
  posthoc_opts.reuse_aware_search = false;
  auto posthoc = StubbyOptimizer(posthoc_opts).Optimize(f->plan());
  ASSERT_TRUE(posthoc.ok());

  EXPECT_LE(aware->estimated_cost, posthoc->estimated_cost)
      << "aware " << aware->estimated_cost << " vs posthoc "
      << posthoc->estimated_cost;
}

TEST(ReuseSearchTest, WarmSearchIsThreadCountInvariant) {
  // Plans, cost bits, reuse counters, and the mutated store itself must be
  // identical whether the aware search ran serially or on 4 threads.
  auto q1 = MakeMapOnly("B", "J1", "OUT1", 1);
  auto q2 = MakeMapOnly("BB", "J2", "OUT2", 2);
  ASSERT_TRUE(q1.ok() && q2.ok());
  StubbyOptions base;
  base.reuse_whole_workflow = false;

  ResultStore warm;
  ReuseSession warmup(&warm);
  auto r1 = warmup.Run(q1->plan(), q1->dfs(), base);
  ASSERT_TRUE(r1.ok());
  const std::string warm_bytes = warm.Serialize();

  std::optional<std::string> ref_plan, ref_counters, ref_store;
  std::optional<double> ref_cost;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto store = ResultStore::Deserialize(warm_bytes);
    ASSERT_TRUE(store.ok());
    ThreadPool pool(threads);
    StubbyOptions opts = base;
    opts.reuse_store = &*store;
    opts.reuse_dfs = &q2->dfs();
    opts.pool = &pool;
    auto report = StubbyOptimizer(opts).Optimize(q2->plan());
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_GE(report->reuse.search_won, 1u) << report->reuse.ToString();
    if (!ref_plan) {
      ref_plan = PlanSignature(report->plan);
      ref_cost = report->estimated_cost;
      ref_counters = report->reuse.ToString();
      ref_store = store->Serialize();
    } else {
      EXPECT_EQ(PlanSignature(report->plan), *ref_plan);
      EXPECT_EQ(report->estimated_cost, *ref_cost);
      EXPECT_EQ(report->reuse.ToString(), *ref_counters);
      EXPECT_EQ(store->Serialize(), *ref_store);
    }
  }
}

}  // namespace
}  // namespace stubby
