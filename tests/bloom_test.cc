// Bloom predicate transfer (mr/bloom_filter.h + optimizer/bloom.h): the
// filter's determinism under partitioned builds, its zero-false-negative
// guarantee, batch-vs-row probe parity (empty batches and broadcast
// columns included), the STUBBY_BLOOM env knob, and the end-to-end A/B on
// a selective join — bloom-on must cut shuffle bytes by at least 30% and
// the simulated makespan measurably while terminal outputs stay
// bit-identical to bloom-off, at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/threading.h"
#include "exec/workflow_runner.h"
#include "mr/bloom_filter.h"
#include "mr/tuple.h"
#include "optimizer/bloom.h"
#include "optimizer/stubby.h"
#include "profiler/profiler.h"
#include "reuse/result_store.h"
#include "workloads/builder.h"
#include "workloads/udfs.h"

namespace stubby {
namespace {

constexpr uint64_t kGB = 1ull << 30;

// --- filter unit tests ------------------------------------------------------

TEST(BloomFilterTest, PartitionedBuildMatchesSerialBuild) {
  // The executor builds one partial filter per build partition and
  // OR-merges them; the result must not depend on how the inserts were
  // split across partials. Compare a serial build against several
  // partitionings through the full observable surface: every probe answer
  // and the set-bit fraction.
  Rng rng(11);
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 4000; ++i) hashes.push_back(rng.NextUint64(~0ull));

  BloomFilter serial(18, 6, kBloomFilterSeed);
  for (uint64_t h : hashes) serial.Insert(h);

  for (int pieces : {2, 3, 8}) {
    SCOPED_TRACE("pieces=" + std::to_string(pieces));
    std::vector<BloomFilter> partials;
    for (int p = 0; p < pieces; ++p) {
      partials.emplace_back(18, 6, kBloomFilterSeed);
    }
    for (size_t i = 0; i < hashes.size(); ++i) {
      partials[i % static_cast<size_t>(pieces)].Insert(hashes[i]);
    }
    BloomFilter merged(18, 6, kBloomFilterSeed);
    for (const BloomFilter& p : partials) merged.UnionWith(p);

    EXPECT_EQ(serial.FillFraction(), merged.FillFraction());
    Rng probe_rng(12);
    for (int i = 0; i < 20000; ++i) {
      const uint64_t h = probe_rng.NextUint64(~0ull);
      ASSERT_EQ(serial.MayContain(h), merged.MayContain(h)) << h;
    }
    for (uint64_t h : hashes) ASSERT_TRUE(merged.MayContain(h));
  }
}

TEST(BloomFilterTest, NoFalseNegativesOnRandomizedKeys) {
  for (uint64_t seed : {1ull, 7ull, 99ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    BloomFilter filter(BloomFilter::SizeForKeys(5000), 6, kBloomFilterSeed);
    std::vector<uint64_t> inserted;
    for (int i = 0; i < 5000; ++i) {
      inserted.push_back(rng.NextUint64(~0ull));
      filter.Insert(inserted.back());
    }
    for (uint64_t h : inserted) {
      ASSERT_TRUE(filter.MayContain(h)) << h;  // the ledger guarantee
    }
    // Sized at ~10 bits/key the false-positive rate must stay small; this
    // also catches a degenerate all-bits-set filter.
    Rng miss_rng(seed + 1000);
    int fp = 0;
    const int probes = 20000;
    for (int i = 0; i < probes; ++i) {
      if (filter.MayContain(miss_rng.NextUint64(~0ull))) ++fp;
    }
    EXPECT_LT(fp, probes / 20) << "false-positive rate above 5%";
  }
}

TEST(BloomFilterTest, SizeForKeysScalesAndCaps) {
  EXPECT_EQ(BloomFilter::SizeForKeys(0), 10);
  EXPECT_LE(BloomFilter::SizeForKeys(100), BloomFilter::SizeForKeys(100000));
  EXPECT_EQ(BloomFilter::SizeForKeys(1ull << 40), 24);  // capped
  // >= 10 bits per key when under the cap.
  const int b = BloomFilter::SizeForKeys(1000);
  EXPECT_GE((1ull << b), 10000u);
}

// --- probe function: batch vs row parity ------------------------------------

std::vector<Row> MakeProbeRows(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row{Value(rng.NextInt(0, 199)), Value(rng.NextInt(0, 9)),
                       Value(rng.NextInt(0, 99))});
  }
  return rows;
}

TEST(BloomProbeMapFnTest, BoundProbeFiltersUnboundPassesThrough) {
  const Schema schema({"K", "G", "V"});
  const std::vector<size_t> key_idx = {0};
  auto filter =
      std::make_shared<BloomFilter>(14, 6, kBloomFilterSeed);
  std::vector<Row> build = MakeProbeRows(120, 5);
  for (const Row& r : build) filter->Insert(HashOnFields(r, key_idx));

  BloomProbeMapFn unbound("probe", schema, {"K"});
  EXPECT_FALSE(unbound.bound());
  auto bound = unbound.Bind(filter);
  ASSERT_TRUE(bound->bound());

  const std::vector<Row> rows = MakeProbeRows(1000, 6);
  VectorEmitter kept;
  for (const Row& r : rows) bound->Map(r, &kept);
  // The probe actually dropped something and kept something.
  EXPECT_GT(kept.rows().size(), 0u);
  EXPECT_LT(kept.rows().size(), rows.size());

  // Unbound = pass-through.
  VectorEmitter pass;
  for (const Row& r : rows) unbound.Map(r, &pass);
  EXPECT_TRUE(RowsBitIdentical(pass.rows(), rows));
}

TEST(BloomTransferFromEnvTest, ParsesStubbyBloom) {
  unsetenv("STUBBY_BLOOM");
  EXPECT_FALSE(BloomTransferFromEnv());
  EXPECT_TRUE(BloomTransferFromEnv(/*fallback=*/true));
  setenv("STUBBY_BLOOM", "0", 1);
  EXPECT_FALSE(BloomTransferFromEnv(/*fallback=*/true));
  setenv("STUBBY_BLOOM", "1", 1);
  EXPECT_TRUE(BloomTransferFromEnv());
  unsetenv("STUBBY_BLOOM");
}

// --- end-to-end A/B ---------------------------------------------------------

/// A selective inner join: R is filtered to a 20-wide key window over a
/// 200-key space (the build side), S is four times R's logical size and
/// unfiltered (the probe side) — roughly 90% of S's rows have no join
/// partner and exist only to be shuffled and discarded, unless the
/// bloom-transfer transformation drops them map-side.
Result<WorkflowFactory> MakeSelectiveJoin() {
  ClusterSpec cluster;
  WorkflowFactory f(cluster);
  Rng rng(77);
  Schema base({"K", "G", "V"});
  auto rows_of = [&](int n) {
    std::vector<Row> rows;
    for (int i = 0; i < n; ++i) {
      rows.push_back(Row{Value(rng.NextInt(0, 199)), Value(rng.NextInt(0, 9)),
                         Value(rng.NextInt(0, 99))});
    }
    return rows;
  };
  STUBBY_RETURN_NOT_OK(
      f.AddBase("R", base, Layout{}, 4, rows_of(400), kGB));
  STUBBY_RETURN_NOT_OK(
      f.AddBase("S", base, Layout{}, 4, rows_of(3000), 4 * kGB));

  Schema tagged({"K", "G", "V", "T"});
  std::vector<AggSpec> aggs = {{"V", AggOp::kSum, "BS"}};
  STUBBY_RETURN_NOT_OK(
      f.AddDataset("OUT", AggOutputSchema({"K"}, aggs), true));

  WorkflowFactory::JobDef j;
  j.id = "JB";
  j.inputs = {
      In("R", {Stage::Map(FilterRangeMap("filter_r", base, "K", 40, 60)),
               Stage::Map(AppendConstMap("tag_r", base, "T",
                                         Value(static_cast<int64_t>(0))))}),
      In("S", {Stage::Map(AppendConstMap("tag_s", base, "T",
                                         Value(static_cast<int64_t>(1))))})};
  j.map_output_schema = tagged;
  j.reduce_stages = {Stage::Reduce(
      InnerJoinReduce("join_jb", tagged, {"K"}, "T", {0, 1}, aggs), {"K"})};
  JoinAnnotation ja;
  ja.filterable_inputs = {0, 1};
  j.join_ann = ja;
  FilterAnnotation fa;
  fa.field = "K";
  fa.lo = 40;
  fa.hi = 60;
  j.filter_ann = fa;
  j.output = "OUT";
  STUBBY_RETURN_NOT_OK(f.AddJob(std::move(j)));
  STUBBY_RETURN_NOT_OK(f.plan().Validate());
  return f;
}

std::vector<Row> SortedOut(const Dfs& dfs) {
  auto ds = dfs.Get("OUT");
  EXPECT_TRUE(ds.ok()) << ds.status();
  std::vector<Row> rows = ds.ok() ? (*ds)->AllRows() : std::vector<Row>{};
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(BloomTransferEndToEndTest, CutsShuffleAndKeepsOutputsBitIdentical) {
  auto f = MakeSelectiveJoin();
  ASSERT_TRUE(f.ok()) << f.status();
  // Profiles give the transform its pass-fraction estimate (the build-side
  // key histogram against the filter annotation's window).
  Profiler profiler(ClusterSpec{});
  Dfs profile_dfs = f->dfs();
  ASSERT_TRUE(profiler.ProfilePlan(&f->plan(), &profile_dfs).ok());

  StubbyOptions off_opts;
  StubbyOptions on_opts;
  on_opts.bloom_transfer = true;
  auto off = StubbyOptimizer(off_opts).Optimize(f->plan());
  ASSERT_TRUE(off.ok()) << off.status();
  auto on = StubbyOptimizer(on_opts).Optimize(f->plan());
  ASSERT_TRUE(on.ok()) << on.status();

  // The transform was enumerated, priced, and won on this shape; the
  // conditions ledger records the guarantee it rode in on.
  bool applied = false;
  for (const std::string& t : on->applied) {
    if (t.find("bloom transfer") != std::string::npos) applied = true;
  }
  EXPECT_TRUE(applied);
  EXPECT_LE(on->estimated_cost, off->estimated_cost);
  bool bloom_branch = false;
  bool ledger = false;
  for (const auto& [jid, job] : on->plan.jobs()) {
    if (job.conditions.bloom_transfer) ledger = true;
    for (const Branch& b : job.branches) {
      if (b.bloom.has_value()) bloom_branch = true;
    }
  }
  EXPECT_TRUE(bloom_branch);
  EXPECT_TRUE(ledger);

  // Execute both plans: bit-identical terminal outputs (integer data, so
  // no tolerance), >= 30% fewer shuffle bytes, and a measurably smaller
  // simulated makespan with the filter on.
  auto run = [&](const Plan& plan) {
    Dfs dfs = f->dfs();
    WorkflowRunner runner(plan.cluster());
    auto flow = runner.Run(plan, &dfs);
    EXPECT_TRUE(flow.ok()) << flow.status();
    uint64_t shuffle = 0;
    for (const JobDataflow& j : flow->jobs) shuffle += j.map_output_bytes;
    return std::make_tuple(SortedOut(dfs), shuffle, flow->makespan_sec);
  };
  auto [off_rows, off_shuffle, off_makespan] = run(off->plan);
  auto [on_rows, on_shuffle, on_makespan] = run(on->plan);

  EXPECT_TRUE(RowsBitIdentical(on_rows, off_rows));
  EXPECT_GT(on_rows.size(), 0u);  // the join produces something to protect
  ASSERT_GT(off_shuffle, 0u);
  EXPECT_LE(on_shuffle * 10, off_shuffle * 7)
      << "shuffle cut below 30%: " << on_shuffle << " vs " << off_shuffle;
  EXPECT_LT(on_makespan, off_makespan);
}

TEST(BloomTransferEndToEndTest, ThreadCountInvariance) {
  auto f = MakeSelectiveJoin();
  ASSERT_TRUE(f.ok()) << f.status();
  Profiler profiler(ClusterSpec{});
  Dfs profile_dfs = f->dfs();
  ASSERT_TRUE(profiler.ProfilePlan(&f->plan(), &profile_dfs).ok());

  StubbyOptions on_opts;
  on_opts.bloom_transfer = true;
  auto on = StubbyOptimizer(on_opts).Optimize(f->plan());
  ASSERT_TRUE(on.ok()) << on.status();

  // The partitioned filter build must leave outputs, makespan bits, and
  // the per-job accounting (the bloom build counters included) identical
  // at every thread count.
  struct Snapshot {
    std::vector<Row> out;
    double makespan = 0.0;
    std::string dataflow;
  };
  std::map<int, Snapshot> by_threads;
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    Dfs dfs = f->dfs();
    WorkflowRunner runner(on->plan.cluster(), &pool);
    auto flow = runner.Run(on->plan, &dfs);
    ASSERT_TRUE(flow.ok()) << flow.status();
    Snapshot s;
    auto ds = dfs.Get("OUT");
    ASSERT_TRUE(ds.ok()) << ds.status();
    s.out = (*ds)->AllRows();  // raw order, no canonical sort
    s.makespan = flow->makespan_sec;
    for (const JobDataflow& j : flow->jobs) s.dataflow += j.ToString() + "\n";
    by_threads[threads] = std::move(s);
  }
  const Snapshot& base = by_threads.at(1);
  EXPECT_NE(base.dataflow.find("bloom="), std::string::npos)
      << "build-pass accounting missing: " << base.dataflow;
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Snapshot& got = by_threads.at(threads);
    EXPECT_TRUE(RowsBitIdentical(got.out, base.out));
    EXPECT_TRUE(SameBits(got.makespan, base.makespan))
        << got.makespan << " vs " << base.makespan;
    EXPECT_EQ(got.dataflow, base.dataflow);
  }
}

}  // namespace
}  // namespace stubby
