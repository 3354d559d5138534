/**
 * @file
 * Behavior of the primitive modules (see core/primdecl.hpp for the
 * declarations). Every method is a pure function over PrimState:
 * value methods read, action methods produce a new state. A false
 * guard leaves the state untouched and reports failure; the
 * interpreter converts that into a guard-failure unwind.
 */
#ifndef BCL_RUNTIME_PRIMITIVES_HPP
#define BCL_RUNTIME_PRIMITIVES_HPP

#include <string>
#include <vector>

#include "core/elaborate.hpp"
#include "runtime/store.hpp"

namespace bcl {

/** Result of a primitive value-method call. */
struct PrimRead
{
    bool ok = false;  ///< guard; false = method not ready
    Value val;        ///< result when ok
};

/**
 * A (primitive kind, method name) pair resolved to one dispatch case.
 * The interpreter resolves these once per call site at compile time
 * so the hot path never compares strings.
 */
enum class PrimMethodId : std::uint8_t
{
    RegRead,
    RegWrite,
    QueueFirst,     ///< Fifo/Sync first
    QueueNotEmpty,
    QueueNotFull,
    QueueEnq,
    QueueDeq,
    QueueClear,
    BramRead,
    BramWrite,
    AudioOutput,
    BitmapGet,
    BitmapStore,
};

/**
 * Resolve (@p prim kind, @p meth, action vs value) to its dispatch
 * id. Panics when the primitive has no such method.
 */
PrimMethodId resolvePrimMethod(const ElabPrim &prim,
                               const std::string &meth, bool is_action);

/** Reset state for @p prim (Reg at init value, empty FIFOs, ...). */
PrimState initPrimState(const ElabPrim &prim);

/**
 * Execute value method @p meth of @p prim against state @p st.
 * Never modifies state.
 */
PrimRead readPrim(const ElabPrim &prim, const PrimState &st,
                  PrimMethodId meth, const std::vector<Value> &args);

/**
 * Execute action method @p meth of @p prim, updating @p st in place.
 * Returns false (and leaves @p st unchanged) when the guard is down.
 */
bool writePrim(const ElabPrim &prim, PrimState &st, PrimMethodId meth,
               const std::vector<Value> &args);

/**
 * Abstract cost of moving one value of the prim's content type, in
 * 32-bit words (used by the cost model for frame-sized copies).
 */
int primWordSize(const ElabPrim &prim);

} // namespace bcl

#endif // BCL_RUNTIME_PRIMITIVES_HPP
