#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

/// \file crew.hpp
/// The library's one parallel primitive (docs/DESIGN.md §11): a persistent
/// crew of workers that runs body(0) .. body(n-1) across itself and the
/// calling thread, one *epoch* per run(). It serves both parallelism
/// levers: the study matrix (one epoch per Study::run, one index per slot,
/// each running the matrix's own worker loop) and the per-group drain at
/// every timestep barrier of a composed run (n ≤ slots, repeated many
/// times). An epoch is an atomic
/// counter bump the workers watch and an atomic countdown the caller
/// watches: no allocation, no std::function construction and no mutex.
///
///  * **One claim rule.** The caller is slot 0 and worker w is slot w
///    (stride = workers + 1). Slot s first runs index s, then claims
///    further indices from one atomic counter that starts at stride. When
///    n ≤ stride no slot touches the counter; uneven indices above it are
///    balanced by the claims.
///  * **Spin, then sleep.** After an epoch a worker spins for a short,
///    bounded window watching the epoch counter, then sleeps in
///    std::atomic::wait; run() notifies only when a worker sleeps. The
///    caller waits for the countdown the same way. Workers start asleep, so
///    a crew that is built but never run costs no CPU.
///  * **Deterministic failure.** Every index runs every epoch; exceptions
///    are kept per index and the lowest index's is rethrown on the caller's
///    thread once the epoch completed.
///  * **Inline when there is nothing to share.** With no workers, with
///    n ≤ 1, or when issued from inside an epoch of the same crew (a body
///    fanning out again), run() executes its indices in order on the
///    calling thread, under the same failure rule.
///
/// One caller at a time: run() is not thread-safe, except for the nested
/// calls above.

namespace maxev::util {

/// Map a user-facing thread-count knob to a thread count: 0 = one per
/// hardware thread, otherwise the value itself.
[[nodiscard]] std::size_t resolve_threads(int threads);

class Crew {
 public:
  /// Spawn \p workers sleeping threads; Crew(0) runs everything inline.
  explicit Crew(std::size_t workers);

  /// Wakes and joins the workers.
  ~Crew();

  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

  /// One epoch: body(0) .. body(n-1) across the workers and this thread,
  /// returning when all n calls finished. Rethrows the lowest-index
  /// exception, if any; the crew stays usable. \p body must outlive the
  /// call.
  void run(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop(std::size_t slot);
  void run_slot(std::size_t slot) noexcept;
  void run_index(std::size_t i) noexcept;
  /// Wake every worker to exit and join it.
  void stop() noexcept;

  const std::size_t stride_;
  /// The current epoch's body and index count, and whether one is open
  /// (written by the caller between epochs, published by the epoch bump).
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  bool in_epoch_ = false;
  /// Per-index exception of the current epoch (written by the index's
  /// slot, read by the caller after the countdown reached zero). Grows
  /// only when n does.
  std::vector<std::exception_ptr> errors_;

  /// Next index to claim once every slot ran its own.
  std::atomic<std::size_t> next_{0};
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
