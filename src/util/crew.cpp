#include "util/crew.hpp"

#include <algorithm>
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

Crew::Crew(std::size_t workers, std::size_t n,
           std::function<void(std::size_t)> body)
    : body_(std::move(body)), n_(n), errors_(n) {
  const std::size_t count = n > 1 ? std::min(workers, n - 1) : 0;
  stride_ = count + 1;
  threads_.reserve(count);
  try {
    for (std::size_t slot = 1; slot <= count; ++slot)
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

void Crew::run_slot(std::size_t slot) noexcept {
  for (std::size_t i = slot; i < n_; i += stride_) {
    try {
      body_(i);
    } catch (...) {
      errors_[i] = std::current_exception();
    }
  }
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

void Crew::run() {
  if (!threads_.empty()) {
    remaining_.store(static_cast<std::uint32_t>(threads_.size()),
                     std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_seq_cst);  // publishes remaining_
    if (sleepers_.load(std::memory_order_seq_cst) != 0) epoch_.notify_all();
  }
  run_slot(0);
  if (!threads_.empty() && !spin_until([this] {
        return remaining_.load(std::memory_order_acquire) == 0;
      })) {
    caller_asleep_.store(true, std::memory_order_seq_cst);
    for (std::uint32_t left = remaining_.load(std::memory_order_seq_cst);
         left != 0; left = remaining_.load(std::memory_order_seq_cst))
      remaining_.wait(left, std::memory_order_seq_cst);
    caller_asleep_.store(false, std::memory_order_relaxed);
  }

  // Every index ran. Clear the epoch's slots and rethrow the lowest one;
  // the exception dies on this thread.
  std::exception_ptr first;
  for (std::exception_ptr& error : errors_) {
    if (error && !first) first = std::move(error);
    error = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace maxev::util
