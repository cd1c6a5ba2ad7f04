// Bloom predicate transfer (mr/bloom_filter.h + optimizer/bloom.h): the
// filter's determinism under partitioned builds, its zero-false-negative
// guarantee, bound vs unbound probes, the STUBBY_BLOOM env knob, and the
// end-to-end A/B on a selective join — bloom-on must cut shuffle bytes by
// at least 30% and the simulated makespan measurably while terminal
// outputs stay bit-identical to bloom-off, at any thread count — plus the
// re-profile of a plan that carries a probe.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/threading.h"
#include "cost/whatif.h"
#include "exec/workflow_runner.h"
#include "mr/bloom_filter.h"
#include "mr/tuple.h"
#include "optimizer/bloom.h"
#include "optimizer/stubby.h"
#include "profiler/profiler.h"
#include "reuse/result_store.h"
#include "test_workflows.h"

namespace stubby {
namespace {

using ::stubby::testing::MakeSelectiveJoin;

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

TEST(BloomTransferEndToEndTest, ReprofiledProbeRecordsWhatItFiltered) {
  // Re-profiling a plan that carries a Bloom transfer (ReoptimizeSuffix
  // with bloom_transfer on) observes the run that executes it: the probe
  // is bound to the filter its job builds, so the probe's selectivity and
  // the join's K2 statistics describe the rows the run actually shuffles.
  auto f = MakeSelectiveJoin();
  ASSERT_TRUE(f.ok()) << f.status();
  Profiler profiler(ClusterSpec{});
  Dfs profile_dfs = f->dfs();
  ASSERT_TRUE(profiler.ProfilePlan(&f->plan(), &profile_dfs).ok());
  StubbyOptions on_opts;
  on_opts.bloom_transfer = true;
  auto on = StubbyOptimizer(on_opts).Optimize(f->plan());
  ASSERT_TRUE(on.ok()) << on.status();

  Plan plan = on->plan;
  Dfs reprofile_dfs = f->dfs();
  ASSERT_TRUE(profiler.ProfilePlan(&plan, &reprofile_dfs).ok());
  const JobVertex* join = nullptr;
  const Stage* probe = nullptr;
  for (const auto& [jid, job] : plan.jobs()) {
    for (const Branch& b : job.branches) {
      if (!b.bloom) continue;
      join = &job;
      for (size_t ii : b.bloom->probe_inputs) {
        for (const Stage& s : b.inputs[ii].map_stages) {
          if (s.kind == Stage::Kind::kMap &&
              dynamic_cast<const BloomProbeMapFn*>(s.map_fn.get())) {
            probe = &s;
          }
        }
      }
    }
  }
  ASSERT_NE(join, nullptr);
  ASSERT_NE(probe, nullptr);
  ASSERT_TRUE(probe->stats.has_value());
  // The plan's own, unbound probe passes every row: it would read 1.
  EXPECT_LT(probe->stats->record_selectivity, 1.0);

  // The what-if engine, fed the re-profile, predicts the join's map
  // output records within 1% of what executing the plan produces.
  // Statistics of the unbound probe would over-predict them 8.3-fold
  // (relative error 7.27: 157,801,700 predicted, 19,084,421 executed).
  auto predicted = WhatIfEngine(plan.cluster()).PredictDataflow(plan);
  ASSERT_TRUE(predicted.ok()) << predicted.status();
  Dfs run_dfs = f->dfs();
  auto executed = WorkflowRunner(plan.cluster()).Run(plan, &run_dfs);
  ASSERT_TRUE(executed.ok()) << executed.status();
  const JobDataflow* want = executed->FindJob(join->id);
  const JobDataflow* got = predicted->FindJob(join->id);
  ASSERT_NE(want, nullptr);
  ASSERT_NE(got, nullptr);
  ASSERT_GT(want->map_output_records, 0u);
  const double error =
      std::abs(static_cast<double>(got->map_output_records) -
               static_cast<double>(want->map_output_records)) /
      static_cast<double>(want->map_output_records);
  EXPECT_LT(error, 0.01);
}

}  // namespace
}  // namespace stubby
