/**
 * @file
 * Rule-body compilation for the interpreter hot path. Elaborated ASTs
 * are walked once per Interp and lowered into flat pools of compiled
 * nodes in which every name lookup of the seed interpreter is a
 * pre-resolved index:
 *
 *   - Var / Let / method parameters -> flat slot indices into a
 *     per-activation value vector (no reverse string scan per read),
 *   - Field / SetField -> interned FieldIds; MakeStruct -> one interned
 *     StructShape (no per-eval parsing of the comma-joined name list),
 *   - primitive method calls -> PrimMethodId (no per-call string
 *     dispatch on kind/method), with the SyncTx/SyncRx message-cost
 *     flag decided at compile time.
 *
 * Compilation is pure mechanism: evaluation of a compiled body charges
 * exactly the same modeled work units, in the same order, as the seed
 * AST walk — CompiledProgram is invisible to the cost model.
 *
 * Contract: compiled nodes index into the pools of their owning
 * CompiledProgram and borrow strings from the source ASTs; each cache
 * entry pins its source tree (shared_ptr), so those borrows stay
 * valid even after the program drops the body. The ElabProgram itself
 * must still outlive the Interp. Every root lookup (ruleRoot /
 * methodRoot) first sweeps all cached rule AND method entries against
 * the program's current body pointers; if any body was replaced, the
 * pools are rebuilt from scratch. So replacing elab.rules[i] or
 * elab.methods[j].body/.value (liftRule, sequentializeProgram,
 * inlining-style in-place mutation) between fires is safe — even for
 * callers whose own bodies did not change — and repeated replacement
 * cannot grow the pools without bound. Because entries pin the old
 * tree, the identity check can never be fooled by allocator address
 * reuse.
 */
#ifndef BCL_RUNTIME_COMPILE_HPP
#define BCL_RUNTIME_COMPILE_HPP

#include <cstdint>
#include <vector>

#include "core/elaborate.hpp"
#include "runtime/primitives.hpp"

namespace bcl {

/** A compiled expression node (mirrors one Expr). */
struct CExpr
{
    ExprKind kind = ExprKind::Const;
    PrimOp op = PrimOp::Add;
    bool isPrim = false;
    PrimMethodId pmeth = PrimMethodId::RegRead;
    int imm = 0;
    std::int32_t slot = -1;     ///< Var: activation slot index
    std::int32_t inst = -1;     ///< CallV: primitive instance id
    std::int32_t methIdx = -1;  ///< CallV: user method index
    std::uint32_t kids = 0;     ///< offset into CompiledProgram::kidPool
    std::uint32_t nkids = 0;
    FieldId fieldId = 0;        ///< Field / SetField
    StructShapePtr shape;       ///< MakeStruct: interned layout
    Value constVal;             ///< Const
    const std::string *name = nullptr;  ///< diagnostics (borrowed)
};

/** A compiled action node (mirrors one Action). */
struct CAct
{
    ActKind kind = ActKind::NoOp;
    bool isPrim = false;
    bool chargeSync = false;  ///< SyncTx.enq / SyncRx.deq driver cost
    PrimMethodId pmeth = PrimMethodId::RegWrite;
    std::int32_t inst = -1;
    std::int32_t methIdx = -1;
    std::uint32_t subs = 0;   ///< child actions (kidPool offset)
    std::uint32_t nsubs = 0;
    std::uint32_t exprs = 0;  ///< child expressions (kidPool offset)
    std::uint32_t nexprs = 0;
    const std::string *name = nullptr;  ///< diagnostics (borrowed)
};

/** Compiled bodies of one ElabProgram (owned by its Interp). */
struct CompiledProgram
{
    /**
     * Cache entries hold an owning reference to the source tree they
     * were compiled from, for two reasons: the compiled nodes borrow
     * strings from it, and pinning it makes the pointer-identity
     * revalidation sound (a freed-and-reallocated body can never
     * alias a live entry's key).
     */
    struct RuleEntry
    {
        ActPtr src;  ///< body this entry was built from (pinned)
        std::int32_t root = -1;
    };
    struct MethodEntry
    {
        std::shared_ptr<const void> src;  ///< body/value tree (pinned)
        std::int32_t root = -1;  ///< into acts (action) / exprs (value)
    };

    std::vector<CExpr> exprs;
    std::vector<CAct> acts;
    std::vector<std::int32_t> kidPool;
    std::vector<RuleEntry> rules;
    std::vector<MethodEntry> methods;
    /** Bumped each time revalidate() drops the pools: anything keyed
     *  on the compiled bodies (the interpreter's replay memos) is
     *  stale once it moves. */
    std::uint64_t generation = 0;

    /**
     * Sweep every cached entry against the program's current body
     * pointers; rebuild the pools from empty if any body (rule or
     * method) was replaced since it was compiled.
     */
    void revalidate(const ElabProgram &prog);

    /**
     * Compiled root of rule @p rule_id, (re)compiling when the rule's
     * body changed since the last call. Also ensures every user
     * method reachable from it is compiled, so evaluation never
     * grows the pools.
     */
    std::int32_t ruleRoot(const ElabProgram &prog, int rule_id);

    /** Compiled root of method @p meth_id (body or value). */
    std::int32_t methodRoot(const ElabProgram &prog, int meth_id);
};

} // namespace bcl

#endif // BCL_RUNTIME_COMPILE_HPP
