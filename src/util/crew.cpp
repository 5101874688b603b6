#include "util/crew.hpp"

#include <chrono>
#include <utility>

namespace maxev::util {

namespace {

/// How long a worker (or the waiting caller) polls before it sleeps: long
/// enough to span the gap between the timestep barriers of a busy composed
/// run, short enough that an idle crew soon stops holding a core.
constexpr std::chrono::microseconds kSpinWindow{50};
/// Pauses between clock reads while spinning.
constexpr int kPausesPerCheck = 32;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Poll \p done for up to kSpinWindow; false when the window ran out first.
template <typename Done>
bool spin_until(Done done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (;;) {
    for (int i = 0; i < kPausesPerCheck; ++i) {
      if (done()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return done();
  }
}

}  // namespace

std::size_t resolve_threads(int threads) {
  if (threads > 0) return static_cast<std::size_t>(threads);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

Crew::Crew(std::size_t workers) : stride_(workers + 1) {
  threads_.reserve(workers);
  try {
    for (std::size_t slot = 1; slot <= workers; ++slot)
      threads_.emplace_back([this, slot] { worker_loop(slot); });
  } catch (...) {
    stop();  // join the workers already started
    throw;
  }
}

Crew::~Crew() { stop(); }

void Crew::stop() noexcept {
  stopping_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_seq_cst);  // publishes stopping_
  epoch_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Crew::run_index(std::size_t i) noexcept {
  try {
    (*body_)(i);
  } catch (...) {
    errors_[i] = std::current_exception();
  }
}

void Crew::run_slot(std::size_t slot) noexcept {
  if (slot >= n_) return;
  run_index(slot);
  if (n_ <= stride_) return;
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < n_;
       i = next_.fetch_add(1, std::memory_order_relaxed))
    run_index(i);
}

void Crew::worker_loop(std::size_t slot) {
  std::uint32_t seen = 0;
  bool spin = false;  // start asleep
  for (;;) {
    if (!spin || !spin_until([&] {
          return epoch_.load(std::memory_order_acquire) != seen;
        })) {
      // Announce the sleep before re-checking the epoch (inside wait):
      // with both sides seq_cst, either run() sees the sleeper and
      // notifies, or this wait sees the new epoch and returns at once.
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      epoch_.wait(seen, std::memory_order_seq_cst);
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
    spin = true;
    // run() starts no epoch before this worker finished the last one, so
    // the counter moved by exactly one.
    seen = epoch_.load(std::memory_order_acquire);
    if (stopping_.load(std::memory_order_relaxed)) return;
    run_slot(slot);
    // The same handshake in the other direction, for the caller's sleep.
    if (remaining_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        caller_asleep_.load(std::memory_order_seq_cst))
      remaining_.notify_one();
  }
}

void Crew::run(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (threads_.empty() || n <= 1 || in_epoch_) {
    // Inline, in index order; every index runs and the lowest failure is
    // rethrown, as in an epoch. Touches no epoch state, so a nested call
    // leaves the open epoch intact.
    std::exception_ptr first;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }

  body_ = &body;
  n_ = n;
  in_epoch_ = true;
  if (errors_.size() < n) errors_.resize(n);
  if (n > stride_) next_.store(stride_, std::memory_order_relaxed);
  remaining_.store(static_cast<std::uint32_t>(threads_.size()),
                   std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_seq_cst);  // publishes the above
  if (sleepers_.load(std::memory_order_seq_cst) != 0) epoch_.notify_all();
  run_slot(0);
  if (!spin_until([this] {
        return remaining_.load(std::memory_order_acquire) == 0;
      })) {
    caller_asleep_.store(true, std::memory_order_seq_cst);
    for (std::uint32_t left = remaining_.load(std::memory_order_seq_cst);
         left != 0; left = remaining_.load(std::memory_order_seq_cst))
      remaining_.wait(left, std::memory_order_seq_cst);
    caller_asleep_.store(false, std::memory_order_relaxed);
  }
  in_epoch_ = false;

  // Every index ran. Clear the epoch's slots and rethrow the lowest one;
  // the exception dies on this thread.
  std::exception_ptr first;
  for (std::size_t i = 0; i < n; ++i) {
    if (errors_[i] && !first) first = std::move(errors_[i]);
    errors_[i] = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace maxev::util
