#pragma once

#include <cmath>
#include <cstdint>

/// \file arith.hpp
/// The one definition of the load and duration arithmetic. The load
/// functors (model/load.hpp), the opcode dispatch (tdg::ops::eval_load),
/// the compile-time fold (tdg::Program) and the engine's hot loop all call
/// these, so the baseline and every dynamic computation path see the same
/// operation counts and the same durations, hence the same instants.

namespace maxev::model::arith {

/// base + per_unit * size operations, clamped at 0 (LinearOpsFn).
[[nodiscard]] inline std::int64_t linear_ops(std::int64_t base,
                                             std::int64_t per_unit,
                                             std::int64_t size) {
  const std::int64_t ops = base + per_unit * size;
  return ops < 0 ? std::int64_t{0} : ops;
}

/// base + round(scale * param) operations, clamped at 0 (ParamOpsFn).
[[nodiscard]] inline std::int64_t param_ops(std::int64_t base, double scale,
                                            double param) {
  const std::int64_t ops =
      base + static_cast<std::int64_t>(std::llround(scale * param));
  return ops < 0 ? std::int64_t{0} : ops;
}

/// Picoseconds that \p ops operations take at \p ops_per_second; 0 for no
/// work. The division before the scaling is part of the definition:
/// instants depend on its rounding.
[[nodiscard]] inline std::int64_t duration_ps(std::int64_t ops,
                                              double ops_per_second) {
  return ops <= 0 ? 0
                  : static_cast<std::int64_t>(std::llround(
                        static_cast<double>(ops) / ops_per_second * 1e12));
}

}  // namespace maxev::model::arith
