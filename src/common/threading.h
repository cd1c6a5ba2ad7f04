// Deterministic task parallelism: a fixed-size worker pool with fork-join
// primitives (ParallelFor / ordered ParallelMap) scheduled by chunked
// work stealing. The pool only decides *when* a task runs, never *what* it
// computes or *how* results combine: callers submit index-addressed pure
// tasks, collect results in submission order, and perform all shared-state
// merges serially afterwards. Under that discipline every computation is
// bit-identical for any thread count — and for any steal schedule, because
// stealing only permutes execution order, which the discipline already
// makes unobservable. This is the invariant the executor, the unit search,
// stubbyd, and the benches rely on.
//
// Scheduling. A ParallelFor batch splits [0, n) into fixed-size chunks (a
// pure function of n and the pool width, never of load or timing) and
// deals them round-robin into one deque per participant, starting with the
// forking participant's own. Each participant pops from the back of its
// own deque; when that runs dry it steals from the front of the other
// deques (mutex-sharded: one mutex per deque, so a steal contends with
// exactly one victim). Stealing keeps every core busy through skewed
// batches — one expensive candidate no longer strands the chunks queued
// behind it.
//
// Nesting. A ParallelFor issued from inside a running task of the same
// pool publishes its chunks as a nested batch beside the enclosing ones,
// and idle workers claim them like any other chunks. So a request
// speculated in a stubbyd wave, or the RRS blocks of one long candidate,
// spread over whatever cores the rest of the enclosing batch left idle.
// The forker drains its own batch first (stealing included) and then
// blocks only until the chunks other threads claimed have finished, so
// every wait is on work that is already running and nesting cannot
// deadlock. Calls from a task of another pool, and every call on a
// 1-thread pool, run inline.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace stubby {

/// Fixed-size worker pool. One top-level ParallelFor batch runs at a time
/// (concurrent top-level calls serialize); calls from inside its tasks fork
/// nested batches that idle workers steal from (see the file comment), so
/// scheduling depth moves wall time only, never results.
class ThreadPool {
 public:
  /// Target chunks dealt per participant. More chunks = finer stealing
  /// granularity, more scheduling overhead. The chunk size derived from
  /// this is a pure function of (n, threads), so it cannot affect results.
  static constexpr size_t kChunksPerThread = 4;

  /// Cumulative scheduling counters. Observability only: steals and the
  /// time totals depend on thread timing, so they must never feed any
  /// deterministic output (plans, costs, instrumentation counters).
  struct Stats {
    /// ParallelFor batches published, top-level and nested alike; calls
    /// that run inline (1-thread pool, cross-pool nesting) are not batches.
    uint64_t batches = 0;
    uint64_t chunks = 0;     ///< chunks dealt across all batches
    uint64_t tasks = 0;      ///< indices executed across all batches
    uint64_t steals = 0;     ///< chunks claimed from another deque, any depth
    /// Summed per-thread time spent claiming and running chunks. A nested
    /// drain lies inside the enclosing chunk and is counted once; time a
    /// forker spends blocked on its nested batch is not counted.
    uint64_t busy_usec = 0;
    uint64_t wall_usec = 0;  ///< summed caller-side top-level batch wall time
  };

  /// Spawns `threads - 1` workers (the calling thread participates in every
  /// batch, so `threads` is the true parallel width). Values < 1 clamp to 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  /// Snapshot of the cumulative scheduling counters (racy with an
  /// in-flight batch only in the sense of being mid-batch fresh).
  Stats stats() const;
  void ResetStats();

  /// std::thread::hardware_concurrency(), clamped to at least 1.
  static int HardwareThreads();

  /// Runs fn(0), ..., fn(n-1) across the pool and the calling thread,
  /// blocking until every task finished. Tasks must not touch shared
  /// mutable state except through their own index's slot. Called from
  /// inside a running task of this pool, forks a nested batch that idle
  /// workers share; called from a task of another pool, or on a 1-thread
  /// pool, runs the whole loop inline.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// ParallelFor that collects fn(i) into a vector in index order —
  /// submission order, not completion order.
  template <typename T, typename Fn>
  std::vector<T> ParallelMap(size_t n, Fn&& fn) {
    std::vector<T> out(n);
    ParallelFor(n, [&](size_t i) { out[i] = fn(i); });
    return out;
  }

  /// True while the current thread is executing a ParallelFor task (worker,
  /// participating caller, or an inline loop) of any pool, at any depth.
  static bool InParallelRegion();

 private:
  /// One participant's share of a batch: the chunks dealt to it are
  /// slots [head, tail) of its round-robin sequence. The owner pops from
  /// the tail, thieves from the head, both under `mu`.
  struct alignas(64) Deque {
    std::mutex mu;
    size_t head = 0;
    size_t tail = 0;
  };

  /// Shared state of one in-flight ParallelFor.
  struct Batch {
    size_t n = 0;
    size_t chunk = 1;    ///< indices per chunk
    size_t first = 0;    ///< participant dealt chunk 0 (the forker)
    const std::function<void(size_t)>* fn = nullptr;
    std::unique_ptr<Deque[]> deques;  // one per participant
    std::atomic<size_t> unclaimed{0};  ///< tasks still in some deque
    std::atomic<size_t> done{0};       ///< tasks finished
    /// The forker waits here, under the pool's `mutex_`, for the last task.
    std::condition_variable done_cv;
  };

  /// The calling thread's place in a pool: the pool whose batches it
  /// participates in and its deque index in each of them.
  struct Participant {
    const ThreadPool* pool = nullptr;
    size_t self = 0;
  };
  static thread_local Participant t_participant_;

  void WorkerLoop(size_t self);
  /// Publishes a batch forked by participant `self`, drains it, and returns
  /// once every task has finished.
  void RunBatch(size_t n, const std::function<void(size_t)>& fn, size_t self);
  /// Claims chunks (own deque first, then steals) and runs their tasks
  /// until no chunk of `batch` is claimable anywhere.
  void DrainBatch(Batch* batch, size_t self);
  /// Pops the next chunk's index range: own back, else another deque's
  /// front.
  bool ClaimChunk(Batch* batch, size_t self, size_t* begin, size_t* end,
                  bool* stolen);
  /// Oldest in-flight batch with unclaimed chunks, or null. Oldest first
  /// hands out the coarse outer chunks before nested ones. Requires
  /// `mutex_`.
  std::shared_ptr<Batch> FindWork() const;

  int threads_ = 1;

  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: a batch arrived / shutdown
  std::vector<std::shared_ptr<Batch>> batches_;  // in flight, oldest first
  bool stop_ = false;

  std::mutex submit_mutex_;  // serializes top-level ParallelFor calls

  std::atomic<uint64_t> stat_batches_{0};
  std::atomic<uint64_t> stat_chunks_{0};
  std::atomic<uint64_t> stat_tasks_{0};
  std::atomic<uint64_t> stat_steals_{0};
  std::atomic<uint64_t> stat_busy_usec_{0};
  std::atomic<uint64_t> stat_wall_usec_{0};

  std::vector<std::thread> workers_;  // last: workers use every member above
};

/// Convenience: runs fn(0..n-1) on `pool` — top-level, nested or inline as
/// ParallelFor decides — or inline in index order when `pool` is null. The
/// semantics are identical in every case.
void RunTasks(ThreadPool* pool, size_t n,
              const std::function<void(size_t)>& fn);

}  // namespace stubby
