/**
 * @file
 * Reference interpreter for elaborated kernel BCL, implementing the
 * operational semantics of section 5:
 *
 *   - rules and action methods execute as transactions over a
 *     TxnFrame; a guard failure anywhere unwinds the whole rule,
 *   - parallel composition runs branches against isolated sibling
 *     frames and merges them (DOUBLE WRITE ERROR on overlap),
 *   - sequential composition lets later actions observe earlier
 *     updates,
 *   - localGuard converts a guard failure of its body into noAction,
 *   - loop re-evaluates its condition against the current shadow.
 *
 * The interpreter doubles as the performance model for generated
 * software: it counts abstract RISC-op work per node, which the
 * benches convert into processor cycles (see CostModel).
 *
 * Execution runs over compiled bodies (runtime/compile.hpp): name
 * lookups, field names and primitive-method dispatch are resolved to
 * indices once per rule, not per evaluation. This is mechanism only —
 * modeled work units are charged exactly as the AST walk charged
 * them (see "Runtime data layout & cost-model invariance" in
 * docs/ARCHITECTURE.md and tests/test_work_accounting.cpp).
 *
 * Contract: fireRule() is atomic — it either commits the rule's
 * whole effect to the store and returns true, or changes nothing and
 * returns false (guard failure). This all-or-nothing property is
 * what every scheduler above (exec.hpp, clocksim.hpp, cosim.hpp)
 * assumes.
 *
 * Replay: an attempt's outcome and charges depend only on the rule's
 * compiled body, the cost model and the state of the primitives the
 * rule may use (ruleRW's uses, reads and writes; conservative by
 * contract, core/rwsets.hpp). So fireRule() remembers the ExecStats
 * delta of a rule's last failed attempt and the store stamp() it
 * failed at. While none of those primitives' versions has moved past
 * that stamp (store.hpp: only the mutable Store::at() moves one), the
 * next attempt adds the remembered delta and returns false without
 * evaluating anything. Fired attempts and attempts that escape with
 * another exception remember nothing; a replaced body (compile.hpp)
 * or a call to the mutable costs() forgets everything.
 */
#ifndef BCL_RUNTIME_INTERP_HPP
#define BCL_RUNTIME_INTERP_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/elaborate.hpp"
#include "runtime/store.hpp"

namespace bcl {

struct CompiledProgram;

/** Guard-failure unwind; not an error (control flow). */
struct GuardFail
{
};

/**
 * Abstract work units charged per construct. Values approximate the
 * RISC instruction counts of the generated C++ the paper describes;
 * the calibration is recorded in docs/EXPERIMENTS.md.
 */
struct CostModel
{
    std::uint64_t perNode = 1;      ///< AST node dispatch
    std::uint64_t perArith = 1;     ///< simple ALU op
    std::uint64_t perMul = 3;       ///< multiply
    std::uint64_t perPrimCall = 2;  ///< primitive method call overhead
    std::uint64_t perWordMove = 1;  ///< copying one 32-bit word
    std::uint64_t perCommitEntry = 2;  ///< committing one shadow entry
    std::uint64_t perRollback = 4;  ///< fixed rollback cost
    std::uint64_t perTryCatch = 12; ///< try/catch rule overhead (naive
                                    ///< codegen; removed by inlining)
    /**
     * Software driver cost per synchronizer message (descriptor
     * setup + cache maintenance for non-coherent DMA on the PPC440).
     * Charged on SyncTx.enq / SyncRx.deq; see docs/EXPERIMENTS.md for the
     * calibration against the paper's communication costs.
     */
    std::uint64_t perSyncMessage = 1400;

    /**
     * Iteration budget for dynamic loops: a loop body may execute at
     * most this many times per rule firing before the interpreter
     * reports a runaway loop (FatalError). Not a work-unit cost —
     * exposed here so benches/tests can tighten it.
     */
    std::uint64_t loopIterBudget = 1u << 22;
};

/** Execution counters. */
struct ExecStats
{
    std::uint64_t work = 0;          ///< total abstract work units
    std::uint64_t wastedWork = 0;    ///< work discarded by rollbacks
    std::uint64_t rulesAttempted = 0;
    std::uint64_t rulesFired = 0;
    std::uint64_t guardFails = 0;
    std::uint64_t commits = 0;
    std::uint64_t shadowCopies = 0;  ///< PrimState snapshots taken

    void
    clear()
    {
        *this = ExecStats{};
    }

    ExecStats &
    operator+=(const ExecStats &d)
    {
        work += d.work;
        wastedWork += d.wastedWork;
        rulesAttempted += d.rulesAttempted;
        rulesFired += d.rulesFired;
        guardFails += d.guardFails;
        commits += d.commits;
        shadowCopies += d.shadowCopies;
        return *this;
    }

    /** Counter-wise difference to an earlier snapshot @p before. */
    ExecStats
    operator-(const ExecStats &before) const
    {
        ExecStats d;
        d.work = work - before.work;
        d.wastedWork = wastedWork - before.wastedWork;
        d.rulesAttempted = rulesAttempted - before.rulesAttempted;
        d.rulesFired = rulesFired - before.rulesFired;
        d.guardFails = guardFails - before.guardFails;
        d.commits = commits - before.commits;
        d.shadowCopies = shadowCopies - before.shadowCopies;
        return d;
    }
};

/** Interpreter over one elaborated program and its store. */
class Interp
{
  public:
    /**
     * @param prog Elaborated program (must outlive the interpreter).
     * @param store Committed state (must outlive the interpreter).
     */
    Interp(const ElabProgram &prog, Store &store);
    ~Interp();

    /**
     * Attempt rule @p rule_id as a transaction.
     * @return true when the rule fired (committed); false on guard
     * failure (all effects rolled back).
     */
    bool fireRule(int rule_id);

    /**
     * Invoke a root-interface action method as a transaction (the
     * "software up the stack" entry point).
     * @return true when it committed.
     */
    bool callActionMethod(int meth_id, const std::vector<Value> &args);

    /**
     * Invoke a root-interface value method. Throws GuardFail if the
     * method is not ready.
     */
    Value callValueMethod(int meth_id, const std::vector<Value> &args);

    /** Work/pressure counters (shared across calls; clear() to reset). */
    ExecStats &stats() { return stats_; }
    const ExecStats &stats() const { return stats_; }

    /**
     * The cost model, mutable for calibration. Forgets every replay
     * memo: a delta charged under one model must not be replayed
     * under another. Do not keep the reference across attempts.
     */
    CostModel &
    costs()
    {
        memos_.clear();
        return costs_;
    }
    const CostModel &costs() const { return costs_; }

    /** Failed attempts answered from a replay memo (mechanism only:
     *  their charges are already in stats()). */
    std::uint64_t replayedAttempts() const { return replayed_; }

    /** The program this interpreter runs. */
    const ElabProgram &program() const { return prog; }

    /** The committed store. */
    Store &store() { return store_; }

  private:
    friend class InterpExec;

    /** What a rule's last failed attempt charged (file comment). */
    struct RuleMemo
    {
        bool primsBuilt = false;
        std::vector<int> prims;  ///< ruleRW's uses, reads and writes
        bool failed = false;     ///< delta/stamp hold a failed attempt
        std::uint64_t stamp = 0; ///< store stamp() at that failure
        ExecStats delta;
    };

    /** @p rule_id's memo, building its primitive list on first use. */
    RuleMemo &memoFor(int rule_id);

    const ElabProgram &prog;
    Store &store_;
    ExecStats stats_;
    CostModel costs_;
    /** Lazily-built compiled rule/method bodies (see compile.hpp).
     *  Pure mechanism: does not affect modeled work. */
    std::unique_ptr<CompiledProgram> compiled_;
    /** Per-rule replay memos, valid for compiled_->generation
     *  memoGeneration_; empty until the first attempt. */
    std::vector<RuleMemo> memos_;
    std::uint64_t memoGeneration_ = 0;
    std::uint64_t replayed_ = 0;
};

} // namespace bcl

#endif // BCL_RUNTIME_INTERP_HPP
