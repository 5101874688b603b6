#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// \file thread_pool.hpp
/// The worker pool behind the study matrix (docs/DESIGN.md §11):
/// study::Study measures its scenario×backend cells on one. The per-group
/// drain inside a composed run uses util::Crew instead, so pool tasks do
/// not nest a second fan-out on this pool.
///
/// Design constraints, in order:
///  * **Determinism is the caller's job, helped by the API.** parallel_for
///    hands out indices; which worker runs which index is scheduling noise,
///    so callers must key every result (and every exception) by index —
///    parallel_for stores per-index exceptions and rethrows the
///    lowest-index one, giving a deterministic failure regardless of
///    completion order.
///  * **The caller works too.** The calling thread claims indices from its
///    own parallel_for, so a batch always finishes, even one issued from
///    inside a pool task with every worker busy.
///  * **No work, no wakeups.** Workers sleep on a condition variable;
///    an idle pool costs nothing.

namespace maxev::util {

class ThreadPool {
 public:
  /// Spawn \p threads workers (>= 1; the constructor clamps 0 up to 1).
  /// Note parallel_for also runs the calling thread, so total parallelism
  /// is threads + 1 while a barrier is open.
  explicit ThreadPool(std::size_t threads);

  /// Joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Run body(0) .. body(n-1) across the workers *and this thread*,
  /// returning when all n calls finished. Exceptions are captured per
  /// index; the lowest-index one is rethrown (deterministic regardless of
  /// which worker hit it first). Safe to call from inside a pool task —
  /// the nested caller claims and executes indices itself.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Map a user-facing thread-count knob to an actual worker count:
  /// 0 = one per hardware thread, otherwise the value itself (>= 1).
  [[nodiscard]] static std::size_t resolve(int threads);

 private:
  struct Batch;  // shared state of one parallel_for

  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace maxev::util
