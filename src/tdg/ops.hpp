#pragma once

#include <cstdint>
#include <vector>

#include "model/arith.hpp"
#include "model/load.hpp"
#include "model/token.hpp"

/// \file ops.hpp
/// The opcode layer (docs/DESIGN.md §14): the factory-built behavioural
/// closures a tdg::Program hoists — loads today, the serve wire format's
/// time/duration specs tomorrow — compiled into enum-dispatched table
/// entries, so the common cases never touch a std::function on the hot
/// path. The vocabulary is deliberately the same one serve/wire
/// round-trips: classification happens once (`classify_load`), and both
/// the engines' dispatch and the wire serializer consume the result.
///
/// `eval_load` and the model/load.hpp functors share their arithmetic
/// (model/arith.hpp), so opcode dispatch and closure dispatch produce the
/// same operation counts (pinned per kind on an input grid by
/// tests/test_ops.cpp). Closures that are not factory-built named
/// functors classify as kOpaqueClosure and fall back to the hoisted
/// std::function, preserving behaviour for arbitrary lambdas.

namespace maxev::tdg::ops {

/// The introspectable opcode vocabulary. Load kinds are produced by
/// classify_load; the weight/time kinds name the remaining compiled-arc
/// and wire-spec cases so the whole system shares one enum (serve/wire
/// maps its time specs here, Program::compile_ops tags fixed segments).
enum class Kind : std::uint8_t {
  kOpaqueClosure = 0,  ///< hand-written lambda: std::function fallback
  kFixedWeight,        ///< pure pre-folded delay (no load at all)
  kRateConstant,       ///< ConstantOpsFn against a pre-resolved rate
  kLinearOps,          ///< LinearOpsFn: base + per_unit * attrs.size
  kParamOps,           ///< ParamOpsFn: base + llround(scale * params[i])
  kCyclicOps,          ///< CyclicOpsFn: table[k % size]
  kTableTime,          ///< serve::TableTimeFn (wire time spec)
  kPeriodicTime,       ///< serve::PeriodicTimeFn (wire time spec)
};

[[nodiscard]] const char* kind_name(Kind k);

/// Classify a hoisted load closure by its concrete functor type
/// (LoadFn::target<T>()). Factory-built loads (model/load.hpp) yield a
/// concrete kind; anything else is kOpaqueClosure.
[[nodiscard]] Kind classify_load(const model::LoadFn& f);

/// Struct-of-arrays opcode table over a program's hoisted loads: one row
/// per load, parameters unpacked into flat columns so eval_load is a
/// switch over plain integers. Built once by compile_loads; never
/// mutated afterwards.
struct LoadTable {
  std::vector<std::uint8_t> kind;   ///< ops::Kind per load
  std::vector<std::int64_t> a;      ///< constant: ops; linear/param: base
  std::vector<std::int64_t> b;      ///< linear: per_unit
  std::vector<double> scale;        ///< param: scale
  std::vector<std::int32_t> index;  ///< param: params index; cyclic: cyc offset
  std::vector<std::int32_t> len;    ///< cyclic: table length
  std::vector<std::int64_t> cyc;    ///< flattened cyclic tables
  std::size_t opaque = 0;           ///< count of kOpaqueClosure rows

  [[nodiscard]] std::size_t size() const { return kind.size(); }
  /// Every load compiled to a concrete opcode (no std::function left).
  [[nodiscard]] bool all_concrete() const { return opaque == 0; }
};

/// Compile a program's hoisted loads into the opcode table.
[[nodiscard]] LoadTable compile_loads(const std::vector<model::LoadFn>& loads);

/// Enum-dispatched load evaluation; \p closures is the hoisted
/// std::function side table, consulted only for kOpaqueClosure rows.
[[nodiscard]] inline std::int64_t eval_load(
    const LoadTable& t, std::size_t i, const model::TokenAttrs& attrs,
    std::uint64_t k, const std::vector<model::LoadFn>& closures) {
  switch (static_cast<Kind>(t.kind[i])) {
    case Kind::kRateConstant:
      return t.a[i];
    case Kind::kLinearOps:
      return model::arith::linear_ops(t.a[i], t.b[i], attrs.size);
    case Kind::kParamOps:
      return model::arith::param_ops(
          t.a[i], t.scale[i],
          attrs.params[static_cast<std::size_t>(t.index[i])]);
    case Kind::kCyclicOps:
      return t.cyc[static_cast<std::size_t>(t.index[i]) +
                   k % static_cast<std::uint64_t>(t.len[i])];
    default:
      return closures[i](attrs, k);
  }
}

}  // namespace maxev::tdg::ops
