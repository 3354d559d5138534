/**
 * @file
 * Seeded random BCL types and values for property tests: marshal
 * round trips on the host (test_partition_cosim) and through a
 * generated C ABI (test_codegen_exec). Seed a common/rng.hpp Rng so
 * a failure reproduces exactly.
 */
#ifndef BCL_TESTS_RANDOM_TYPES_HPP
#define BCL_TESTS_RANDOM_TYPES_HPP

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/types.hpp"
#include "core/value.hpp"

namespace bcl {

/** A random type nesting Vecs and anonymous records up to @p depth
 *  levels deep over Bool and Bit#(1..64) leaves. */
inline TypePtr
randomType(Rng &rng, int depth)
{
    // Leaves get more likely as depth grows; at depth 0 only leaves.
    std::uint64_t pick = rng.below(depth > 0 ? 4 : 2);
    switch (pick) {
      case 0:
        return Type::bits(static_cast<int>(rng.below(64)) + 1);
      case 1:
        return Type::boolean();
      case 2:
        return Type::vec(static_cast<int>(rng.below(4)) + 1,
                         randomType(rng, depth - 1));
      default: {
        int nfields = static_cast<int>(rng.below(4)) + 1;
        std::vector<std::pair<std::string, TypePtr>> fields;
        for (int i = 0; i < nfields; i++) {
            fields.emplace_back("f" + std::to_string(i),
                                randomType(rng, depth - 1));
        }
        return Type::record("", std::move(fields));
      }
    }
}

/** A random inhabitant of @p t. */
inline Value
randomValue(Rng &rng, const TypePtr &t)
{
    if (t->isBool())
        return Value::makeBool(rng.chance(0.5));
    if (t->isBits())
        return Value::makeBits(t->width(), rng.next());
    if (t->isVec()) {
        std::vector<Value> elems;
        for (int i = 0; i < t->vecSize(); i++)
            elems.push_back(randomValue(rng, t->elem()));
        return Value::makeVec(std::move(elems));
    }
    std::vector<std::pair<std::string, Value>> fields;
    for (const auto &[name, ft] : t->fields())
        fields.emplace_back(name, randomValue(rng, ft));
    return Value::makeStruct(std::move(fields));
}

} // namespace bcl

#endif // BCL_TESTS_RANDOM_TYPES_HPP
