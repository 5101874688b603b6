#include "model/load.hpp"

#include "model/arith.hpp"
#include "util/error.hpp"

namespace maxev::model {

std::int64_t LinearOpsFn::operator()(const TokenAttrs& a,
                                     std::uint64_t) const {
  return arith::linear_ops(base, per_unit, a.size);
}

std::int64_t ParamOpsFn::operator()(const TokenAttrs& a, std::uint64_t) const {
  return arith::param_ops(base, scale, a.params[param_index]);
}

LoadFn constant_ops(std::int64_t ops) {
  if (ops < 0) throw DescriptionError("constant_ops: negative ops");
  return ConstantOpsFn{ops};
}

LoadFn linear_ops(std::int64_t base, std::int64_t per_unit) {
  if (base < 0) throw DescriptionError("linear_ops: negative base");
  return LinearOpsFn{base, per_unit};
}

LoadFn param_ops(std::int64_t base, double scale, std::size_t param_index) {
  if (param_index >= std::tuple_size_v<decltype(TokenAttrs::params)>)
    throw DescriptionError("param_ops: param index out of range");
  return ParamOpsFn{base, scale, param_index};
}

LoadFn cyclic_ops(std::vector<std::int64_t> table) {
  if (table.empty()) throw DescriptionError("cyclic_ops: empty table");
  for (auto v : table)
    if (v < 0) throw DescriptionError("cyclic_ops: negative ops");
  return CyclicOpsFn{std::move(table)};
}

}  // namespace maxev::model
