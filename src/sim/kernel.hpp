#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/diagnostics.hpp"
#include "sim/ladder_queue.hpp"
#include "sim/process.hpp"
#include "util/cancel.hpp"
#include "util/time.hpp"

/// \file kernel.hpp
/// Discrete-event simulation kernel.
///
/// This is the executable substrate the reproduced paper assumes (a SystemC
/// kernel): an event queue ordered by (time, insertion sequence), cooperative
/// processes, timed waits and notifications. Determinism: ties in time are
/// broken by insertion order, so repeated runs of the same model produce
/// identical schedules. The queue is a two-level ladder
/// (sim/ladder_queue.hpp) rather than a binary heap: the baseline model's
/// per-event cost is part of every speed-up this library reports, so the
/// reference simulator has to be as fast as the substrate allows.

namespace maxev::sim {

/// Optional limits on one kernel's execution, set via
/// Kernel::set_run_guards(). All default-off; run() samples them once per
/// call and dispatches a guard-free event loop when none is set, so the
/// hot path pays nothing (the same template split as the timestep hook).
/// A guard-tripped run leaves the queue and all coroutines intact: raise
/// the budget (or clear the cancellation) and call run() again to resume.
struct RunGuards {
  /// Stop with StopReason::kBudget once this many events (resumes +
  /// callbacks) have been dispatched over the kernel's lifetime, counted
  /// cumulatively across run() calls. 0 = unlimited. Event-granular, so it
  /// also bounds same-instant spins a horizon cannot cut.
  std::uint64_t max_events = 0;
  /// Stop with StopReason::kDeadline this much wall-clock time after the
  /// first guarded run() begins (checked every 64 events). 0 = none.
  std::chrono::nanoseconds deadline{0};
  /// Stop with StopReason::kCancelled when this token reports
  /// cancellation; checked before every dispatch, so also at every
  /// timestep-hook barrier. Not owned; may be shared across kernels.
  const util::CancelToken* cancel = nullptr;

  [[nodiscard]] bool any() const {
    return max_events != 0 || deadline.count() > 0 || cancel != nullptr;
  }
};

/// Counters exposed for the paper's metrics (event ratio, context switches).
///
/// Ownership contract: stats live inside their Kernel and a Kernel is only
/// ever driven by one thread at a time. The thread-parallel layers
/// (DESIGN.md §11) parallelize *across* kernels — one per study cell — or
/// suspend the kernel at a timestep barrier before fanning out, so these
/// counters are plain integers, never shared mutable state.
struct KernelStats {
  std::uint64_t events_scheduled = 0;  ///< queue insertions (timed wakeups, notifies, calls)
  std::uint64_t resumes = 0;           ///< coroutine context switches
  std::uint64_t inline_resumes = 0;    ///< resume_now() resumes that skipped the queue
  std::uint64_t callbacks = 0;         ///< scheduled plain-function events
  std::uint64_t processes_spawned = 0;
  std::uint64_t processes_finished = 0;
  std::size_t max_queue_depth = 0;
};

class Kernel {
 public:
  Kernel() = default;
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Register a process. The factory is stored (keeping lambda captures
  /// alive for the coroutine's lifetime) and invoked once; the process body
  /// is scheduled to start at the current simulation time.
  std::uint32_t spawn(std::string name, std::function<Process()> factory);

  /// Current simulation time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Awaitable: resume this process after \p d of simulated time.
  [[nodiscard]] auto delay(Duration d);
  /// Awaitable: resume this process at simulated time max(now, t).
  [[nodiscard]] auto delay_until(TimePoint t);

  /// Schedule a coroutine resume at absolute time \p t (used by events and
  /// channels). \pre t >= now()
  void schedule_resume(Process::Handle h, TimePoint t);

  /// Schedule a plain callback at absolute time \p t. \pre t >= now()
  void schedule_call(TimePoint t, std::function<void()> fn);

  /// Resume a suspended process at the *current* instant without a queue
  /// round-trip — the inline-resume fast path (docs/DESIGN.md §10). Safe
  /// only outside coroutine dispatch: when another process is mid-resume
  /// (e.g. a channel hook running inside the writer's own suspension), the
  /// call degrades to schedule_resume(h, now()), preserving today's
  /// ordering. From hook/callback context (timestep hooks, scheduled
  /// calls, the idle loop) the resume executes immediately; the simulated
  /// instant is unchanged either way, so traces are value-identical — only
  /// the queued-event count drops.
  /// \pre the target is suspended on a synchronization with NO queued
  ///      resume event (a blocked writer/reader, not a timed wait) —
  ///      resuming a queued process inline would run it twice when its
  ///      queue entry pops. Throws maxev::SimulationError otherwise.
  void resume_now(Process::Handle h);

  /// Outcome of run() — the shared sim::StopReason enum; the historical
  /// nested name (and its kIdle/kTimeLimit enumerators) stay valid.
  using RunResult = StopReason;

  /// Execute events until the queue drains, the horizon passes, or a run
  /// guard trips (budget/deadline/cancellation — see RunGuards). Process
  /// exceptions propagate to the caller wrapped with the process name
  /// (fail fast, keep diagnostics).
  RunResult run(std::optional<TimePoint> until = std::nullopt);

  /// Install execution limits for subsequent run() calls. Like the
  /// timestep hook, guards are sampled once per run(): the guard-free
  /// event loop is a separate template instantiation, so unset guards
  /// cost nothing per event. Pass {} to clear.
  void set_run_guards(RunGuards guards) { guards_ = guards; }
  [[nodiscard]] const RunGuards& run_guards() const { return guards_; }

  /// Why the most recent run() returned (kIdle before any run).
  [[nodiscard]] StopReason last_stop() const { return last_stop_; }

  /// Events dispatched (resumes + callbacks) over this kernel's lifetime —
  /// the quantity RunGuards::max_events budgets.
  [[nodiscard]] std::uint64_t events_dispatched() const {
    return stats_.resumes + stats_.callbacks - stats_.inline_resumes;
  }

  /// Register a hook fired at every timestep boundary: when the queue has
  /// no event left at the current simulation time — before time advances,
  /// and before run() returns. The hook returns true when it did work (it
  /// may schedule new events, including at the current time, which are
  /// then processed before time advances); it is re-invoked until it
  /// returns false, so it must be idempotent at quiescence.
  ///
  /// This is how deferred computation batches across same-instant events:
  /// core::EquivalentModel with sub-batches lets all instances' feeds of
  /// one instant accumulate and drains the resulting iteration fronts
  /// here, in one pass (docs/DESIGN.md §9). One hook per kernel; passing
  /// an empty function removes it. Install before run(): the hook's
  /// presence is sampled once per run() call (the hook-less event loop
  /// stays free of the check).
  void set_timestep_hook(std::function<bool()> hook) {
    timestep_hook_ = std::move(hook);
  }

  /// Event-cost sensitivity knob: spin for this much *wall-clock* time per
  /// processed event, emulating the heavier per-event cost of commercial
  /// kernels (the reproduced paper's substrate, Intel CoFluent Studio,
  /// spends orders of magnitude more per event than this library). The
  /// method's speed-up converges to the event ratio as this grows — see
  /// bench_ablation.
  void set_synthetic_event_overhead(std::chrono::nanoseconds wall) {
    event_overhead_ = wall;
  }

  [[nodiscard]] const KernelStats& stats() const { return stats_; }

  /// Names of processes that are neither finished nor queued for resume —
  /// i.e. blocked on some synchronization. Used for stall diagnosis.
  [[nodiscard]] std::vector<std::string> blocked_process_names() const;

  /// Number of processes that have not run to completion.
  [[nodiscard]] std::size_t live_process_count() const;

 private:
  /// Lean, trivially copyable queue payload: callbacks live in a side table
  /// so queue moves never touch std::function objects.
  struct QueueItem {
    Process::Handle h{};        // empty => callback entry
    std::int32_t call_idx = -1; // index into pending_calls_
  };

  struct ProcInfo {
    std::string name;
    Process::Handle handle{};
    bool queued = false;  ///< scheduled for resume (not blocked)
  };

  void reap(std::uint32_t id);
  template <bool WithHook, bool WithGuards>
  StopReason run_loop(std::optional<TimePoint> until);

  LadderQueue<QueueItem> queue_;
  std::vector<ProcInfo> procs_;
  std::vector<std::unique_ptr<std::function<Process()>>> factories_;
  std::vector<std::function<void()>> pending_calls_;  // slab for callbacks
  std::vector<std::int32_t> free_call_slots_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t seq_ = 0;
  /// > 0 while a coroutine resume is on the stack; gates resume_now().
  std::uint32_t dispatch_depth_ = 0;
  std::chrono::nanoseconds event_overhead_{0};
  std::function<bool()> timestep_hook_;
  KernelStats stats_;
  RunGuards guards_;
  /// Absolute deadline, fixed when the first guarded run() begins (so a
  /// horizon-resumed run keeps the original budget of wall time).
  std::optional<std::chrono::steady_clock::time_point> deadline_at_;
  StopReason last_stop_ = StopReason::kIdle;
};

namespace detail {

struct DelayAwaiter {
  Kernel* kernel;
  TimePoint wake;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<Process::promise_type> h) const {
    kernel->schedule_resume(Process::Handle::from_address(h.address()), wake);
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

inline auto Kernel::delay(Duration d) {
  return detail::DelayAwaiter{this, now_ + d};
}

inline auto Kernel::delay_until(TimePoint t) {
  return detail::DelayAwaiter{this, t < now_ ? now_ : t};
}

}  // namespace maxev::sim
