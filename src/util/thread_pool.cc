#include "util/thread_pool.h"

#include <algorithm>

namespace gus {
namespace {

// The pool (if any) whose task the current thread is executing. Set around
// every claim loop — including the caller's own participation — so nested
// ParallelFor calls on the same pool can detect themselves and run inline
// instead of deadlocking on the batch mutex.
thread_local ThreadPool* tls_current_pool = nullptr;

class CurrentPoolScope {
 public:
  explicit CurrentPoolScope(ThreadPool* pool) : prev_(tls_current_pool) {
    tls_current_pool = pool;
  }
  ~CurrentPoolScope() { tls_current_pool = prev_; }

 private:
  ThreadPool* prev_;
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  configured_.store(n, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  Spawn(n - 1);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int ThreadPool::HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

bool ThreadPool::InPoolTask() { return tls_current_pool != nullptr; }

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(1);  // grows on demand, workers persist
  return pool;
}

void ThreadPool::Spawn(int count) {
  if (count <= 0) return;
  const int have = static_cast<int>(threads_.size());
  threads_.reserve(have + count);
  for (int i = 0; i < count; ++i) {
    const int worker_id = have + i + 1;  // worker 0 is the caller
    // Start at the current epoch so a worker spawned mid-life doesn't
    // mistake past batches for a fresh one.
    threads_.emplace_back(
        [this, worker_id, e = epoch_] { WorkerLoop(worker_id, e); });
    spawned_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::EnsureThreads(int num_threads) {
  const int want = std::max(1, num_threads);
  if (want <= this->num_threads()) return;
  std::lock_guard<std::mutex> batch(batch_mu_);  // no batch while growing
  std::lock_guard<std::mutex> lock(mu_);
  const int have = configured_.load(std::memory_order_acquire);
  if (want <= have) return;
  Spawn(want - have);
  configured_.store(want, std::memory_order_release);
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn) {
  ParallelForChunked(n, /*chunk=*/1, num_threads(),
                     [&fn](int /*worker*/, int64_t begin, int64_t end) {
                       for (int64_t i = begin; i < end; ++i) fn(i);
                     });
}

void ThreadPool::ParallelForChunked(int64_t n, int64_t chunk, int max_workers,
                                    const RangeFn& fn) {
  if (n <= 0) return;
  if (chunk < 1) chunk = 1;
  int workers = std::min(std::max(1, max_workers), num_threads());
  const int64_t chunks = (n + chunk - 1) / chunk;
  if (chunks < workers) workers = static_cast<int>(chunks);

  // Serial fast path: one worker, or a nested call from inside one of this
  // pool's own tasks (waiting on batch_mu_ would deadlock — the outer
  // batch can't finish while this task blocks). Touches no pool state.
  if (workers == 1 || tls_current_pool == this) {
    CurrentPoolScope scope(this);
    for (int64_t b = 0; b < n; b += chunk) {
      fn(0, b, std::min(b + chunk, n));
    }
    return;
  }

  std::lock_guard<std::mutex> batch(batch_mu_);  // one batch at a time
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    limit_ = n;
    chunk_ = chunk;
    active_workers_ = workers;
    remaining_.store(n, std::memory_order_relaxed);
    cursor_.store(0, std::memory_order_relaxed);
    ++epoch_;
  }
  work_cv_.notify_all();

  RunClaimLoop(/*worker=*/0, fn, n, chunk);

  std::unique_lock<std::mutex> lock(mu_);
  // Wait for every index to complete AND every spawned worker to leave its
  // claim loop — a straggler still probing the (drained) cursor must not
  // observe the next batch's reset state with this batch's fn.
  done_cv_.wait(lock, [this] {
    return remaining_.load(std::memory_order_acquire) == 0 &&
           workers_in_batch_ == 0;
  });
  fn_ = nullptr;
}

void ThreadPool::WorkerLoop(int worker_id, uint64_t seen_epoch) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock,
                  [&] { return shutdown_ || epoch_ != seen_epoch; });
    if (shutdown_) return;
    seen_epoch = epoch_;
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    // Batch already drained (tiny n), or this worker isn't part of it.
    if (fn_ == nullptr || worker_id >= active_workers_) continue;
    const RangeFn* fn = fn_;
    const int64_t limit = limit_;
    const int64_t chunk = chunk_;
    ++workers_in_batch_;
    lock.unlock();
    RunClaimLoop(worker_id, *fn, limit, chunk);
    lock.lock();
    --workers_in_batch_;
    if (workers_in_batch_ == 0 &&
        remaining_.load(std::memory_order_acquire) == 0) {
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::RunClaimLoop(int worker, const RangeFn& fn, int64_t limit,
                              int64_t chunk) {
  // Mark the thread as inside one of this pool's tasks — covers both the
  // participating caller and spawned workers — so re-entrant ParallelFor
  // calls take the inline path instead of deadlocking on batch_mu_.
  CurrentPoolScope pool_scope(this);
  while (true) {
    const int64_t b = cursor_.fetch_add(chunk, std::memory_order_relaxed);
    if (b >= limit) break;
    const int64_t e = std::min(b + chunk, limit);
    fn(worker, b, e);
    FinishIndexes(e - b);
  }
}

void ThreadPool::FinishIndexes(int64_t count) {
  if (remaining_.fetch_sub(count, std::memory_order_acq_rel) == count) {
    // Last indexes done: wake the caller. The lock pairs with the caller's
    // predicate check so the notify can't slip between its evaluation and
    // its wait.
    std::lock_guard<std::mutex> lock(mu_);
    done_cv_.notify_all();
  }
}

PoolLease::PoolLease(int num_threads) {
  if (ThreadPool::InPoolTask()) {
    local_.emplace(num_threads);
    pool_ = &*local_;
    // All of the transient pool's spawns are on this lease's account.
    spawned_before_ = 0;
    wakeups_before_ = 0;
  } else {
    pool_ = &ThreadPool::Shared();
    spawned_before_ = pool_->spawned_threads();
    wakeups_before_ = pool_->wakeups();
    pool_->EnsureThreads(num_threads);
  }
}

}  // namespace gus
