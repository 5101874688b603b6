#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

/// \file crew.hpp
/// A persistent barrier crew for one fixed fan-out repeated many times: the
/// per-group batch drain at every kernel timestep barrier
/// (docs/DESIGN.md §11). Where util::ThreadPool::parallel_for pays a queue
/// push, a shared batch allocation and a condition-variable round trip per
/// call, a Crew is bound once to its body and index count, and one run()
/// is one *epoch*: an atomic counter bump the workers watch, a static
/// index split, and an atomic countdown the caller watches. No allocation,
/// no std::function construction and no mutex per epoch.
///
///  * **Static slots.** The caller is slot 0 and worker w is slot w; slot s
///    runs indices s, s + stride, s + 2·stride, ... (stride = workers + 1),
///    so no index dispenser is needed.
///  * **Spin, then sleep.** After an epoch a worker spins for a short,
///    bounded window watching the epoch counter, then sleeps in
///    std::atomic::wait; run() notifies only when a worker sleeps. The
///    caller waits for the countdown the same way. Workers start asleep, so
///    a crew that is built but never run costs no CPU.
///  * **Deterministic failure.** Every index runs every epoch; exceptions
///    are kept per index and the lowest index's is rethrown on the caller's
///    thread once the epoch completed.
///
/// One caller at a time: run() is not reentrant and not thread-safe.

namespace maxev::util {

class Crew {
 public:
  /// Bind \p body over indices [0, n) and spawn min(workers, n - 1)
  /// sleeping threads (a worker beyond that would own no index).
  Crew(std::size_t workers, std::size_t n,
       std::function<void(std::size_t)> body);

  /// Wakes and joins the workers.
  ~Crew();

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

  /// One epoch: body(0) .. body(n-1) across the workers and this thread,
  /// returning when all n calls finished. Rethrows the lowest-index
  /// exception, if any; the crew stays usable.
  void run();

 private:
  void worker_loop(std::size_t slot);
  void run_slot(std::size_t slot) noexcept;
  /// Wake every worker to exit and join it.
  void stop() noexcept;

  const std::function<void(std::size_t)> body_;
  const std::size_t n_;
  std::size_t stride_ = 1;
  /// Per-index exception of the current epoch (written by the index's
  /// slot, read by the caller after the countdown reached zero).
  std::vector<std::exception_ptr> errors_;

  /// Bumped once per epoch, and once more to stop.
  std::atomic<std::uint32_t> epoch_{0};
  /// Workers yet to finish the current epoch.
  std::atomic<std::uint32_t> remaining_{0};
  /// Workers asleep (or about to sleep) on epoch_.
  std::atomic<std::uint32_t> sleepers_{0};
  /// The caller is asleep (or about to sleep) on remaining_.
  std::atomic<bool> caller_asleep_{false};
  std::atomic<bool> stopping_{false};

  /// Declared last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace maxev::util
