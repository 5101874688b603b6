#pragma once

#include <cstdint>
#include <string>

#include "util/error.hpp"

/// \file fault.hpp
/// Deterministic fault injection for the robustness test suite.
///
/// Hot-path code marks interesting failure sites with
/// `MAXEV_FAULT_POINT("name")`. In normal builds the macro compiles to
/// nothing — zero code, zero data, zero branches. Under `-DMAXEV_FAULTS=ON`
/// (CMake option) each point becomes a guarded call into FaultInjector:
/// a relaxed atomic "anything armed?" check, then a locked slow path that
/// counts the hit and throws once the armed trigger matures. Tests arm a
/// point for its nth upcoming hit (directly, or derived from a seed) and
/// drive a run into a reproducible mid-flight throw or allocation failure —
/// pinning the exception-safety contract of every engine
/// (docs/DESIGN.md §12: no leaks, no hangs, poisoned-or-reusable).
///
/// Fault-point catalog (docs/DESIGN.md §12 keeps the authoritative list):
///   kernel.dispatch      sim::Kernel event dispatch, between pop and resume
///   engine.flush         tdg::Engine instant-series flushes during drains
///   trace.append         trace::UsageTrace::push
///   pool.parallel_for    study::Study::run, where its crew starts the
///                        run's one epoch
///   adaptive.fastforward study::AdaptiveModel commit, after certification
///                        and staging but before any trace is extended

namespace maxev::util {

/// Thrown by an armed fault point (MAXEV_FAULTS builds only). Derives from
/// maxev::Error so injected faults flow through the same catch sites as
/// organic failures.
class FaultInjectedError : public Error {
 public:
  using Error::Error;
};

#if defined(MAXEV_FAULTS)

/// Process-wide registry of armed fault points. All static: the points are
/// compiled into library code, so there is exactly one injection domain per
/// process. Thread-safe; arming is test-only so the lock is uncontended in
/// the fast path (active() is a relaxed atomic read).
class FaultInjector {
 public:
  enum class Kind : std::uint8_t {
    kError,     ///< throw FaultInjectedError
    kBadAlloc,  ///< throw std::bad_alloc (allocation-failure drill)
  };

  /// Arm \p point to throw on its \p nth upcoming hit (1 = the very next).
  /// Triggers are one-shot: the point disarms itself when it fires.
  static void arm(const std::string& point, std::uint64_t nth,
                  Kind kind = Kind::kError);

  /// Seeded helper: arms for a deterministic nth in [1, window], derived
  /// from \p seed by a splitmix64 step — the same seed always faults the
  /// same hit, different seeds scatter the fault across the run.
  static void arm_seeded(const std::string& point, std::uint64_t seed,
                         std::uint64_t window, Kind kind = Kind::kError);

  static void disarm(const std::string& point);

  /// Disarm every point and zero every hit counter.
  static void reset();

  /// Hits recorded at \p point (counted only while at least one point is
  /// armed; reset() zeroes them).
  [[nodiscard]] static std::uint64_t hits(const std::string& point);

  /// Fast gate for MAXEV_FAULT_POINT: false while nothing is armed.
  [[nodiscard]] static bool active() noexcept;

  /// Slow path behind active(): count the hit, throw if a trigger matured.
  static void on_hit(const char* point);
};

#endif  // MAXEV_FAULTS

}  // namespace maxev::util

#if defined(MAXEV_FAULTS)
#define MAXEV_FAULT_POINT(name)                       \
  do {                                                \
    if (::maxev::util::FaultInjector::active())       \
      ::maxev::util::FaultInjector::on_hit(name);     \
  } while (0)
#else
#define MAXEV_FAULT_POINT(name) ((void)0)
#endif
