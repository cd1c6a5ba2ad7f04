#include "common/threading.h"

#include <algorithm>
#include <chrono>
#include <memory>

namespace stubby {

namespace {
thread_local bool t_in_parallel_region = false;
/// Time this thread spent blocked waiting for its nested batches; the
/// outermost drain around those waits takes it out of its busy time.
thread_local uint64_t t_blocked_usec = 0;

uint64_t UsecSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace

thread_local ThreadPool::Participant ThreadPool::t_participant_;

bool ThreadPool::InParallelRegion() { return t_in_parallel_region; }

int ThreadPool::HardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.batches = stat_batches_.load(std::memory_order_relaxed);
  s.chunks = stat_chunks_.load(std::memory_order_relaxed);
  s.tasks = stat_tasks_.load(std::memory_order_relaxed);
  s.steals = stat_steals_.load(std::memory_order_relaxed);
  s.busy_usec = stat_busy_usec_.load(std::memory_order_relaxed);
  s.wall_usec = stat_wall_usec_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::ResetStats() {
  stat_batches_.store(0, std::memory_order_relaxed);
  stat_chunks_.store(0, std::memory_order_relaxed);
  stat_tasks_.store(0, std::memory_order_relaxed);
  stat_steals_.store(0, std::memory_order_relaxed);
  stat_busy_usec_.store(0, std::memory_order_relaxed);
  stat_wall_usec_.store(0, std::memory_order_relaxed);
}

bool ThreadPool::ClaimChunk(Batch* batch, size_t self, size_t* begin,
                            size_t* end, bool* stolen) {
  // `unclaimed` drops only after a chunk left its deque, so zero means
  // every chunk is gone and the scan below can be skipped.
  if (batch->unclaimed.load(std::memory_order_relaxed) == 0) return false;
  const size_t k = static_cast<size_t>(threads_);
  // Slot j of deque q holds chunk r + j*k, r being q's place in the deal.
  auto take = [&](size_t q, size_t slot) {
    const size_t c = (q + k - batch->first) % k + slot * k;
    *begin = c * batch->chunk;
    *end = std::min(batch->n, *begin + batch->chunk);
  };
  {
    Deque& own = batch->deques[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (own.head < own.tail) {
      take(self, --own.tail);
      *stolen = false;
      return true;
    }
  }
  for (size_t off = 1; off < k; ++off) {
    const size_t q = (self + off) % k;
    Deque& victim = batch->deques[q];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.head < victim.tail) {
      // Steal from the front: the owner works from the back, so thief and
      // victim touch opposite ends and the stolen chunk is the one the
      // owner would have reached last.
      take(q, victim.head++);
      *stolen = true;
      return true;
    }
  }
  return false;
}

void ThreadPool::DrainBatch(Batch* batch, size_t self) {
  const bool was_in_region = t_in_parallel_region;
  t_in_parallel_region = true;
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t blocked0 = t_blocked_usec;
  size_t begin = 0;
  size_t end = 0;
  bool stolen = false;
  while (ClaimChunk(batch, self, &begin, &end, &stolen)) {
    const size_t count = end - begin;
    batch->unclaimed.fetch_sub(count, std::memory_order_relaxed);
    for (size_t i = begin; i < end; ++i) (*batch->fn)(i);
    stat_tasks_.fetch_add(count, std::memory_order_relaxed);
    if (stolen) stat_steals_.fetch_add(1, std::memory_order_relaxed);
    // Release pairs with the forker's acquire load in RunBatch's wait,
    // ordering every task's writes (and the counts above) before the
    // forker observes completion.
    if (batch->done.fetch_add(count, std::memory_order_acq_rel) + count ==
        batch->n) {
      // Take the lock (empty critical section) so the notify cannot slip
      // between the forker's predicate check and its wait.
      { std::lock_guard<std::mutex> lock(mutex_); }
      batch->done_cv.notify_one();
    }
  }
  // A drain nested in a running chunk is already inside the enclosing
  // drain's interval; only the outermost one adds its time, less the time
  // this thread sat blocked on nested batches within it.
  if (!was_in_region) {
    const uint64_t elapsed = UsecSince(t0);
    const uint64_t blocked = t_blocked_usec - blocked0;
    stat_busy_usec_.fetch_add(elapsed > blocked ? elapsed - blocked : 0,
                              std::memory_order_relaxed);
  }
  t_in_parallel_region = was_in_region;
}

std::shared_ptr<ThreadPool::Batch> ThreadPool::FindWork() const {
  for (const std::shared_ptr<Batch>& b : batches_) {
    if (b->unclaimed.load(std::memory_order_relaxed) > 0) return b;
  }
  return nullptr;
}

void ThreadPool::WorkerLoop(size_t self) {
  t_participant_.pool = this;
  t_participant_.self = self;
  for (;;) {
    // Hold a shared reference while draining so the batch outlives any
    // straggler worker that is between chunks when the forker returns.
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || (batch = FindWork()) != nullptr;
      });
      if (stop_) return;
    }
    DrainBatch(batch.get(), self);
  }
}

void ThreadPool::RunBatch(size_t n, const std::function<void(size_t)>& fn,
                          size_t self) {
  const size_t k = static_cast<size_t>(threads_);
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;
  batch->first = self;
  batch->deques = std::make_unique<Deque[]>(k);
  // Chunk size is a pure function of (n, threads) — never of load, timing
  // or depth. Chunking cannot affect results (every index runs exactly
  // once, into its own slot); it only trades scheduling overhead against
  // steal granularity.
  const size_t target = k * kChunksPerThread;
  batch->chunk = std::max<size_t>(1, (n + target - 1) / target);
  const size_t nchunks = (n + batch->chunk - 1) / batch->chunk;
  // Dealt round-robin from the forker's deque before the batch is
  // published: the r-th deque after it gets chunks r, r + k, r + 2k, ...
  for (size_t r = 0; r < k && r < nchunks; ++r) {
    batch->deques[(self + r) % k].tail = (nchunks - r + k - 1) / k;
  }
  batch->unclaimed.store(n, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batches_.push_back(batch);
  }
  // Wake no more workers than there are chunks beyond the forker's first.
  for (size_t i = 1; i < std::min(nchunks, k); ++i) work_cv_.notify_one();

  DrainBatch(batch.get(), self);
  // Every chunk is claimed now, so the ones still running belong to other
  // threads: the wait below is on work already in progress.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (batch->done.load(std::memory_order_acquire) != n) {
      const auto b0 = std::chrono::steady_clock::now();
      batch->done_cv.wait(lock, [&] {
        return batch->done.load(std::memory_order_acquire) == n;
      });
      t_blocked_usec += UsecSince(b0);
    }
    batches_.erase(std::find(batches_.begin(), batches_.end(), batch));
  }
  stat_batches_.fetch_add(1, std::memory_order_relaxed);
  stat_chunks_.fetch_add(nchunks, std::memory_order_relaxed);
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const bool in_task = t_in_parallel_region;
  // A 1-thread pool, or a task of another pool calling in, runs the loop
  // inline: identical semantics, and no cross-pool wait to reason about.
  if (threads_ == 1 || (in_task && t_participant_.pool != this)) {
    t_in_parallel_region = true;
    for (size_t i = 0; i < n; ++i) fn(i);
    t_in_parallel_region = in_task;
    return;
  }
  if (in_task) {
    RunBatch(n, fn, t_participant_.self);
    return;
  }

  std::lock_guard<std::mutex> submit(submit_mutex_);
  const auto w0 = std::chrono::steady_clock::now();
  const Participant saved = t_participant_;
  t_participant_ = Participant{this, 0};
  RunBatch(n, fn, 0);
  t_participant_ = saved;
  stat_wall_usec_.fetch_add(UsecSince(w0), std::memory_order_relaxed);
}

void RunTasks(ThreadPool* pool, size_t n,
              const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace stubby
