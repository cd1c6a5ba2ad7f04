// Tests of the deterministic task-parallel core: the work-stealing
// ThreadPool and its fork-join primitives, the CostCacheOverlay
// snapshot/merge protocol, and the batch-structured RRS — the pieces
// whose contract is "any thread count, any steal schedule, identical
// bits".

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/threading.h"
#include "cost/cost_cache.h"
#include "optimizer/rrs.h"

namespace stubby {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, HandlesEdgeSizes) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelFor(0, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(1, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
  // Fewer tasks than threads.
  pool.ParallelFor(2, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, ClampsThreadCountAndReportsHardware) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  ThreadPool pool2(-5);
  EXPECT_EQ(pool2.threads(), 1);
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

TEST(ThreadPoolTest, ParallelMapPreservesSubmissionOrder) {
  for (int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    auto out =
        pool.ParallelMap<int>(257, [](size_t i) { return static_cast<int>(i) * 3; });
    ASSERT_EQ(out.size(), 257u);
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i) * 3);
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForCompletesOnASaturatedPool) {
  // 16 outer tasks keep every participant busy at each width, each forks
  // 64 inner tasks, and every 8th inner task forks a third level. Every
  // (outer, inner) index must run exactly once into its own slot, and the
  // ordered sum must reproduce the serial bits whoever ran what.
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  constexpr size_t kLeaf = 8;
  auto value = [](size_t slot, size_t leaf) {
    return std::sin(static_cast<double>(slot)) * 1e-3 +
           1.0 / (static_cast<double>(slot + leaf) + 1.0);
  };
  auto run = [&](ThreadPool* pool, std::vector<std::atomic<int>>* hits) {
    std::vector<double> slots(kOuter * kInner);
    std::vector<double> leaves(kOuter * kInner * kLeaf);
    RunTasks(pool, kOuter, [&](size_t o) {
      if (pool != nullptr) {
        EXPECT_TRUE(ThreadPool::InParallelRegion());
      }
      RunTasks(pool, kInner, [&](size_t i) {
        const size_t slot = o * kInner + i;
        if (hits != nullptr) (*hits)[slot].fetch_add(1);
        double v = value(slot, 0);
        if (i % 8 == 0) {
          RunTasks(pool, kLeaf, [&](size_t l) {
            leaves[slot * kLeaf + l] = value(slot, l + 1);
          });
          for (size_t l = 0; l < kLeaf; ++l) v += leaves[slot * kLeaf + l];
        }
        slots[slot] = v;
      });
    });
    double sum = 0.0;
    for (double v : slots) sum += v;
    return sum;
  };
  const double serial = run(nullptr, nullptr);
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    EXPECT_EQ(run(&pool, &hits), serial) << "threads=" << threads;
    for (size_t s = 0; s < hits.size(); ++s) {
      ASSERT_EQ(hits[s].load(), 1) << "threads=" << threads << " slot=" << s;
    }
    // One top-level batch, 16 inner and 16 * 8 leaf batches.
    EXPECT_EQ(pool.stats().batches, 1u + kOuter + kOuter * kInner / 8);
    EXPECT_FALSE(ThreadPool::InParallelRegion());
  }
}

TEST(ThreadPoolTest, NestedBatchOfALongTaskRunsOnIdleThreads) {
  // Outer task 0 waits until its seven siblings have finished, so the
  // workers that ran them are idle when it forks its inner batch. Each
  // inner task then waits until a second thread has run one of them: only
  // a batch shared with the idle workers gets past that without the
  // deadline.
  ThreadPool pool(4);
  constexpr size_t kOuter = 8;
  std::atomic<size_t> siblings_done{0};
  std::atomic<bool> timed_out{false};
  std::mutex mu;
  std::set<std::thread::id> inner_threads;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  auto wait_until = [&](const std::function<bool()>& ready) {
    while (!ready()) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        return;
      }
      std::this_thread::yield();
    }
  };
  pool.ParallelFor(kOuter, [&](size_t o) {
    if (o != 0) {
      siblings_done.fetch_add(1);
      return;
    }
    wait_until([&] { return siblings_done.load() == kOuter - 1; });
    pool.ParallelFor(64, [&](size_t) {
      {
        std::lock_guard<std::mutex> lock(mu);
        inner_threads.insert(std::this_thread::get_id());
      }
      wait_until([&] {
        std::lock_guard<std::mutex> lock(mu);
        return inner_threads.size() >= 2;
      });
    });
  });
  EXPECT_FALSE(timed_out.load()) << "the inner batch ran on one thread";
  EXPECT_GE(inner_threads.size(), 2u);
}

TEST(ThreadPoolTest, CrossPoolNestedParallelForRunsInline) {
  // A task of pool A calling pool B's ParallelFor runs the loop inline, in
  // index order, on its own thread; pool B publishes no batch.
  ThreadPool a(4);
  ThreadPool b(4);
  std::vector<int> inline_ok(8, 0);
  a.ParallelFor(8, [&](size_t o) {
    const std::thread::id me = std::this_thread::get_id();
    std::vector<size_t> order;
    bool same_thread = true;
    b.ParallelFor(16, [&](size_t i) {
      EXPECT_TRUE(ThreadPool::InParallelRegion());
      if (std::this_thread::get_id() != me) same_thread = false;
      order.push_back(i);
    });
    std::vector<size_t> expected(16);
    std::iota(expected.begin(), expected.end(), size_t{0});
    inline_ok[o] = same_thread && order == expected ? 1 : 0;
  });
  for (int ok : inline_ok) EXPECT_EQ(ok, 1);
  EXPECT_EQ(b.stats().batches, 0u);
  EXPECT_EQ(b.stats().tasks, 0u);
}

TEST(ThreadPoolTest, ConcurrentTopLevelCallsSerialize) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  auto submit = [&] {
    for (int k = 0; k < 20; ++k) {
      pool.ParallelFor(50, [&](size_t) { total.fetch_add(1); });
    }
  };
  std::thread a(submit), b(submit);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * 20 * 50);
}

TEST(ThreadPoolTest, SkewedTaskDurationsStillRunEveryIndexOnce) {
  // Adversarial skew: a handful of tasks are orders of magnitude heavier
  // than the rest, and the heavy indices land in the same deque under the
  // round-robin deal. Correctness must not depend on who ends up running
  // what.
  ThreadPool pool(8);
  constexpr size_t kN = 512;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) {
    // Indices 0 and 1 spin ~100x longer than the rest.
    volatile uint64_t sink = 0;
    const uint64_t spins = (i < 2) ? 200000 : 2000;
    for (uint64_t s = 0; s < spins; ++s) sink += s;
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(ThreadPoolTest, SkewedDurationsAreBitIdenticalAcrossSchedules) {
  // The ordered-merge sum must not depend on thread count or on which
  // chunks got stolen — duration skew makes the steal schedule maximally
  // timing-dependent, so run it at several widths and demand the serial
  // bits every time.
  constexpr size_t kN = 300;
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    std::vector<double> slots(kN);
    pool.ParallelFor(kN, [&](size_t i) {
      volatile uint64_t sink = 0;
      const uint64_t spins = (i % 67 == 0) ? 150000 : 500;
      for (uint64_t s = 0; s < spins; ++s) sink += s;
      slots[i] = std::sin(static_cast<double>(i)) * 1e-3 + 1.0 / (i + 1.0);
    });
    double sum = 0.0;
    for (double v : slots) sum += v;
    return sum;
  };
  const double serial = run(1);
  for (int threads : {1, 2, 4, 8}) {
    EXPECT_EQ(run(threads), serial) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, StragglerChunksAreStolen) {
  // One task blocks until every other task has finished. The blocked
  // participant still owns undealt chunks in its deque, so the batch can
  // only complete if the other participants steal them — this test both
  // proves the steal path runs and exercises batch completion by a thief.
  ThreadPool pool(4);
  pool.ResetStats();
  constexpr size_t kN = 256;
  // Chunk size is a pure function of (n, threads); the blocked chunk's
  // other indices live nowhere else, so the wait target must exclude the
  // whole chunk, not just the blocked index.
  constexpr size_t kChunk = kN / (4 * ThreadPool::kChunksPerThread);
  std::atomic<size_t> finished{0};
  std::atomic<bool> timed_out{false};
  // Block the *caller's first task*: the caller claims the back chunk of
  // its own deque before any worker can, so blocking there pins a deque
  // that still holds chunks only thieves can reach.
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_blocked{false};
  pool.ParallelFor(kN, [&](size_t i) {
    (void)i;
    if (std::this_thread::get_id() == caller &&
        !caller_blocked.exchange(true)) {
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::seconds(30);
      while (finished.load() < kN - kChunk) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true);
          break;
        }
        std::this_thread::yield();
      }
    }
    finished.fetch_add(1);
  });
  EXPECT_FALSE(timed_out.load())
      << "other participants never drained the blocked deque";
  EXPECT_EQ(finished.load(), kN);
  EXPECT_GE(pool.stats().steals, 1u);
}

TEST(ThreadPoolTest, StatsCountBatchesTasksAndChunks) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  pool.ParallelFor(kN, [](size_t) {});
  pool.ParallelFor(kN, [](size_t) {});
  ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.tasks, 2 * kN);
  // 4 threads x 4 chunks/thread target -> many chunks per batch.
  EXPECT_GE(s.chunks, 2 * 4u);
  pool.ResetStats();
  s = pool.stats();
  EXPECT_EQ(s.batches, 0u);
  EXPECT_EQ(s.tasks, 0u);

  // A nested run. Tasks 1-3 hold the other participants until task 0's
  // inner batch has finished, so task 0's thread must claim every inner
  // chunk itself, stealing the ones dealt to the other deques: nested
  // batches, tasks and steals count like top-level ones.
  std::atomic<bool> inner_done{false};
  std::atomic<bool> timed_out{false};
  pool.ParallelFor(4, [&](size_t i) {
    if (i == 0) {
      pool.ParallelFor(kN, [](size_t) {});
      inner_done.store(true);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!inner_done.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_FALSE(timed_out.load());
  s = pool.stats();
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.tasks, 4 + kN);
  EXPECT_GE(s.chunks, 4 + 4 * 4u);
  EXPECT_GE(s.steals, 1u);

  // Busy time counts each thread once: every thread here forks and drains
  // an inner batch inside its outer task, and counting that drain on top of
  // the enclosing one would report about twice threads x wall.
  pool.ResetStats();
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(64, [](size_t) {
      volatile uint64_t sink = 0;
      for (uint64_t k = 0; k < 200000; ++k) sink = sink + k;
    });
  });
  s = pool.stats();
  EXPECT_EQ(s.batches, 5u);
  EXPECT_GT(s.busy_usec, 0u);
  EXPECT_LE(s.busy_usec, s.wall_usec * 4 * 3 / 2);
}

TEST(RunTasksTest, NullPoolRunsInlineInIndexOrder) {
  std::vector<size_t> order;
  RunTasks(nullptr, 10, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(RunTasksTest, OrderedMergeIsBitIdenticalAcrossThreadCounts) {
  // The idiom all call sites use: pure tasks fill their own slot, a serial
  // in-order merge accumulates. Float accumulation order is then fixed, so
  // the sum is bit-identical at every thread count.
  constexpr size_t kN = 500;
  auto run = [&](ThreadPool* pool) {
    std::vector<double> slots(kN);
    RunTasks(pool, kN, [&](size_t i) {
      slots[i] = std::sin(static_cast<double>(i)) * 1e-3 + 1.0 / (i + 1.0);
    });
    double sum = 0.0;
    for (double v : slots) sum += v;
    return sum;
  };
  const double serial = run(nullptr);
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(run(&pool), serial) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// CostCacheOverlay

CostKey Key(uint64_t n) { return {n, ~n}; }

CostEstimate Est(double cost) {
  CostEstimate e;
  e.cost = cost;
  return e;
}

TEST(CostCacheOverlayTest, ReadsFallThroughWritesStayLocal) {
  CostCache cache;
  cache.InsertPlan(Key(1), Est(10.0));

  CostCacheOverlay overlay(&cache);
  const CostEstimate* hit = overlay.FindPlan(Key(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->cost, 10.0);
  EXPECT_EQ(overlay.FindPlan(Key(2)), nullptr);

  overlay.InsertPlan(Key(2), Est(20.0));
  ASSERT_NE(overlay.FindPlan(Key(2)), nullptr);
  EXPECT_EQ(overlay.FindPlan(Key(2))->cost, 20.0);
  // The shared store must not see the overlay's write until the merge.
  EXPECT_EQ(cache.PeekPlan(Key(2)), nullptr);
}

TEST(CostCacheOverlayTest, LocalWriteShadowsParent) {
  CostCache cache;
  cache.InsertPlan(Key(1), Est(10.0));
  CostCacheOverlay overlay(&cache);
  overlay.InsertPlan(Key(1), Est(99.0));
  EXPECT_EQ(overlay.FindPlan(Key(1))->cost, 99.0);
  EXPECT_EQ(overlay.PeekPlan(Key(1))->cost, 99.0);
  EXPECT_EQ(cache.PeekPlan(Key(1))->cost, 10.0);
}

TEST(CostCacheOverlayTest, MergeReplaysInsertsAndRecency) {
  // plan_capacity 2 → a single shard with exact global LRU order, so the
  // journaled Touch must decide the eviction victim after the merge.
  CostCache::Options opts;
  opts.plan_capacity = 2;
  CostCache cache(opts);
  cache.InsertPlan(Key(1), Est(1.0));
  cache.InsertPlan(Key(2), Est(2.0));  // LRU order now: 2 (fresh), 1

  CostCacheOverlay overlay(&cache);
  ASSERT_NE(overlay.FindPlan(Key(1)), nullptr);  // journals a touch of 1
  overlay.MergeInto(&cache);                     // LRU order now: 1, 2

  cache.InsertPlan(Key(3), Est(3.0));  // evicts 2, the least recent
  EXPECT_NE(cache.PeekPlan(Key(1)), nullptr);
  EXPECT_EQ(cache.PeekPlan(Key(2)), nullptr);
  EXPECT_NE(cache.PeekPlan(Key(3)), nullptr);
}

TEST(CostCacheOverlayTest, MergeWritesLocalInsertsIntoStore) {
  CostCache cache;
  CostCacheOverlay overlay(&cache);
  overlay.InsertPlan(Key(7), Est(7.0));
  overlay.MergeInto(&cache);
  ASSERT_NE(cache.PeekPlan(Key(7)), nullptr);
  EXPECT_EQ(cache.PeekPlan(Key(7))->cost, 7.0);
}

TEST(CostCacheOverlayTest, OverlaysNestOverOverlays) {
  CostCache cache;
  cache.InsertPlan(Key(1), Est(1.0));
  CostCacheOverlay outer(&cache);
  outer.InsertPlan(Key(2), Est(2.0));

  CostCacheOverlay inner(&outer);
  EXPECT_EQ(inner.FindPlan(Key(1))->cost, 1.0);  // through both layers
  EXPECT_EQ(inner.FindPlan(Key(2))->cost, 2.0);  // from the outer overlay
  inner.InsertPlan(Key(3), Est(3.0));
  EXPECT_EQ(outer.PeekPlan(Key(3)), nullptr);

  inner.MergeInto(&outer);
  ASSERT_NE(outer.PeekPlan(Key(3)), nullptr);
  EXPECT_EQ(outer.PeekPlan(Key(3))->cost, 3.0);
  outer.MergeInto(&cache);
  ASSERT_NE(cache.PeekPlan(Key(3)), nullptr);
  EXPECT_EQ(cache.PeekPlan(Key(2))->cost, 2.0);
}

TEST(CostCacheOverlayTest, NullParentMissesUntilWritten) {
  CostCacheOverlay overlay(nullptr);
  EXPECT_EQ(overlay.FindPlan(Key(1)), nullptr);
  overlay.InsertPlan(Key(1), Est(5.0));
  EXPECT_EQ(overlay.FindPlan(Key(1))->cost, 5.0);
}

TEST(CostCacheOverlayTest, SnapshotMergeMatchesSerialExecution) {
  // Two identical optimizer runs, one routing all cache traffic through
  // per-task overlays merged in submission order, one writing the shared
  // cache directly in the same order — the final cache contents must agree.
  auto direct = std::make_unique<CostCache>();
  auto overlaid = std::make_unique<CostCache>();
  for (uint64_t task = 0; task < 4; ++task) {
    // Direct, serial.
    for (uint64_t k = 0; k < 3; ++k) {
      if (direct->FindPlan(Key(task * 3 + k)) == nullptr) {
        direct->InsertPlan(Key(task * 3 + k), Est(double(task * 3 + k)));
      }
    }
  }
  std::vector<std::unique_ptr<CostCacheOverlay>> overlays;
  for (uint64_t task = 0; task < 4; ++task) {
    overlays.push_back(std::make_unique<CostCacheOverlay>(overlaid.get()));
    for (uint64_t k = 0; k < 3; ++k) {
      if (overlays.back()->FindPlan(Key(task * 3 + k)) == nullptr) {
        overlays.back()->InsertPlan(Key(task * 3 + k),
                                    Est(double(task * 3 + k)));
      }
    }
  }
  for (const auto& o : overlays) o->MergeInto(overlaid.get());
  EXPECT_EQ(direct->plan_entries(), overlaid->plan_entries());
  for (uint64_t n = 0; n < 12; ++n) {
    const CostEstimate* a = direct->PeekPlan(Key(n));
    const CostEstimate* b = overlaid->PeekPlan(Key(n));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->cost, b->cost);
  }
}

// ---------------------------------------------------------------------------
// Batch-structured RRS

TEST(RrsBatchTest, MinimizeMatchesMinimizeBatchesBitForBit) {
  auto f = [](const std::vector<double>& x) {
    double v = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      double d = x[i] - (0.2 + 0.1 * static_cast<double>(i));
      v += d * d;
    }
    return v;
  };
  RrsOptions opts;
  std::vector<std::vector<double>> seeds = {{0.5, 0.5, 0.5}, {0.9, 0.1, 0.9}};

  RecursiveRandomSearch serial(opts, 42);
  auto [p1, v1] = serial.Minimize(3, f, seeds);

  RecursiveRandomSearch batched(opts, 42);
  auto [p2, v2] = batched.MinimizeBatches(
      3,
      [&](const std::vector<std::vector<double>>& batch) {
        std::vector<double> values(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) values[i] = f(batch[i]);
        return values;
      },
      seeds);

  EXPECT_EQ(p1, p2);
  EXPECT_EQ(v1, v2);
  EXPECT_LT(v2, f(seeds[0]));  // it actually optimized
}

TEST(RrsBatchTest, TrajectoryIsAPureFunctionOfSeedAndValues) {
  // The sequence of evaluated points must depend only on the RNG seed and
  // the values returned so far — never on batch timing. Record both runs'
  // full point streams and compare bit-for-bit.
  auto f = [](const std::vector<double>& x) {
    return std::abs(x[0] - 0.3) + std::abs(x[1] - 0.6);
  };
  auto run = [&] {
    std::vector<std::vector<double>> stream;
    RecursiveRandomSearch rrs(RrsOptions{}, 7);
    rrs.MinimizeBatches(
        2,
        [&](const std::vector<std::vector<double>>& batch) {
          std::vector<double> values(batch.size());
          for (size_t i = 0; i < batch.size(); ++i) {
            stream.push_back(batch[i]);
            values[i] = f(batch[i]);
          }
          return values;
        },
        {{0.5, 0.5}});
    return stream;
  };
  EXPECT_EQ(run(), run());
}

TEST(RrsBatchTest, BatchesRespectTheEvaluationBudget) {
  RrsOptions opts;
  opts.budget = 23;
  size_t evaluated = 0;
  RecursiveRandomSearch rrs(opts, 3);
  rrs.MinimizeBatches(
      2,
      [&](const std::vector<std::vector<double>>& batch) {
        evaluated += batch.size();
        std::vector<double> values(batch.size(), 1.0);
        for (size_t i = 0; i < batch.size(); ++i) values[i] = batch[i][0];
        return values;
      },
      {{0.5, 0.5}});
  EXPECT_EQ(evaluated, 23u);
}

}  // namespace
}  // namespace stubby
