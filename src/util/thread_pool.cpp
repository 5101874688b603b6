#include "util/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace maxev::util {

/// Shared state of one parallel_for: an index dispenser plus per-index
/// exception slots. Which thread runs which index is scheduling noise; the
/// slots keep the observable outcome (results keyed by index, first-index
/// exception) deterministic anyway.
struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::vector<std::exception_ptr> errors;
  std::mutex mu;
  std::condition_variable done;

  /// Claim and run indices until the dispenser is exhausted. Runs on
  /// workers and on the calling thread alike.
  void run() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*body)(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        // Lock before notifying so the waiter cannot miss the wakeup
        // between its predicate check and its wait.
        { std::lock_guard<std::mutex> lk(mu); }
        done.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  MAXEV_FAULT_POINT("pool.parallel_for");
  if (n == 0) return;
  if (n == 1 || workers_.empty()) {
    // Degenerate barrier: run inline (exceptions propagate directly).
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->body = &body;
  batch->n = n;
  batch->errors.resize(n);

  // One helper per worker, capped by the index count; a helper that loses
  // the race to the dispenser returns immediately. Late helpers popping
  // after completion are harmless for the same reason — the shared_ptr
  // keeps the batch alive until the last one retires.
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_)
      throw Error("ThreadPool::parallel_for: pool is shutting down");
    for (std::size_t h = 0; h < helpers; ++h)
      queue_.emplace_back([batch] { batch->run(); });
  }
  cv_.notify_all();

  // The calling thread participates, so the batch finishes even when
  // every worker is busy elsewhere.
  batch->run();

  {
    std::unique_lock<std::mutex> lk(batch->mu);
    batch->done.wait(lk, [&] {
      return batch->finished.load(std::memory_order_acquire) >= n;
    });
  }

  // Move the exception out before rethrowing: a late helper may drop the
  // last reference to the batch on a worker thread, and the exception must
  // not die there while the caller's handler still reads it.
  for (std::size_t i = 0; i < n; ++i)
    if (batch->errors[i]) {
      const std::exception_ptr error = std::move(batch->errors[i]);
      std::rethrow_exception(error);
    }
}

std::size_t ThreadPool::resolve(int threads) {
  if (threads > 0) return static_cast<std::size_t>(threads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace maxev::util
