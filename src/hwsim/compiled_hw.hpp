/**
 * @file
 * Compiled hardware backend: the clock-edge counterpart of
 * runtime/gencc.hpp's CompiledPartition. A hardware partition is
 * generated by generateCpp() exactly like a software one — same
 * translation unit, same artifact, same CompileCache key — but driven
 * through the `bcl_gen_hw_cycle` entry point, which clocks one edge
 * of the baked BSV schedule (CAN_FIRE = transactional rule bodies,
 * WILL_FIRE = constant conflict bitmasks from the static
 * ConflictMatrix, priority = program order).
 *
 * CompiledHwPartition shares ClockSim's pacing and cycle accounting
 * through ClockedPartition (hwsim/clocksim.hpp).
 *
 * Messages cross the ABI as canonical marshaled words via the wrapped
 * CompiledPartition (pushPrim/popPrim/popDevice), and the instance
 * inherits its thread-confinement contract — see runtime/gencc.hpp.
 *
 * Cycle-exactness across the ABI. With the interpreted backend a
 * sync fifo is ONE queue that both the transport and the rules touch,
 * so guards (canEnq/canDeq) see transport-side occupancy directly.
 * The compiled instance keeps its own gen::Fifo behind the ABI, and
 * the transports keep talking to the mirror store — so as a
 * DomainExecutor, before each step (a cycle, or a burst: no channel
 * activity happens mid-burst) exchangeIn projects the mirror's
 * occupancy into the instance, and exchangeOut reconciles afterwards:
 *
 *   SyncRx (rules only dequeue): feed the mirror's messages in order
 *   without removing them from the mirror. After the step, whatever
 *   is left in the instance is a duplicate — drain and discard it;
 *   the difference is how many the rules consumed, and that many are
 *   popped off the mirror front. The mirror stays the full-occupancy
 *   source of truth for the transport's credit checks.
 *
 *   SyncTx (rules only enqueue): the instance fifo is empty between
 *   steps (we drain it fully), but the producer guard must see the
 *   not-yet-delivered backlog or it would never feel backpressure and
 *   cycle counts would diverge. Prefill with one zero-valued dummy
 *   per backlogged mirror entry, step, pop the dummies back off, and
 *   append only the genuinely new messages to the mirror tail.
 *
 * This relies on the same contract the interpreter enforces
 * dynamically: rules never enqueue into a SyncRx, never dequeue from
 * a SyncTx, and never clear a sync fifo.
 */
#ifndef BCL_HWSIM_COMPILED_HW_HPP
#define BCL_HWSIM_COMPILED_HW_HPP

#include <cstdint>
#include <memory>

#include "hwsim/clocksim.hpp"
#include "runtime/gencc.hpp"

namespace bcl {

/** One live clock-edge instance of a compiled hardware partition. */
class CompiledHwPartition final : public ClockedPartition
{
  public:
    /** True when a host C++ compiler responds on this machine. */
    static bool hostCompilerAvailable()
    {
        return CompiledArtifact::hostCompilerAvailable();
    }

    /** Compile privately (one artifact, one instance). @p prog must
     *  pass validateForHardware — fatals otherwise, like ClockSim. */
    CompiledHwPartition(const ElabProgram &prog,
                        GenccOptions opts = {});

    /** New instance of an already-compiled artifact (the CompileCache
     *  path). Fatals when the artifact's partition did not pass the
     *  synchronous-hardware validation at generation time. */
    explicit CompiledHwPartition(
        std::shared_ptr<const CompiledArtifact> artifact);

    CompiledHwPartition(const CompiledHwPartition &) = delete;
    CompiledHwPartition &operator=(const CompiledHwPartition &) =
        delete;

    /** Host-side counters (perRuleFires refreshed across the ABI on
     *  every call; same race caveats as CompiledPartition counter
     *  reads). */
    const HwStats &stats() const;
    const HwStats *hwStats() const override { return &stats(); }

    // The occupancy projection of the file comment.
    bool exchangeIn(Store &mirror) override;
    bool exchangeOut(Store &mirror) override;

    // Marshaled message exchange (delegates to the wrapped instance).
    bool pushPrim(int prim_id, const Value &v)
    {
        return part_.pushPrim(prim_id, v);
    }
    bool popPrim(int prim_id, Value &out)
    {
        return part_.popPrim(prim_id, out);
    }
    bool popDevice(int prim_id, Value &out)
    {
        return part_.popDevice(prim_id, out);
    }

    /** Release thread ownership (see CompiledPartition). */
    void rebindThread() override { part_.rebindThread(); }

    const ElabProgram &program() const { return part_.program(); }

  private:
    /** Reject artifacts whose hw entry points are stubs. */
    void checkHwCapable();
    int clockEdge() override;

    CompiledPartition part_;
    MirrorPrims prims_;
    std::vector<Value> txZero_;  ///< zero template per prims_.tx
    std::vector<int> rxFed_;     ///< per-step scratch, ∥ prims_.rx
    std::vector<int> txPre_;     ///< per-step scratch, ∥ prims_.tx
};

} // namespace bcl

#endif // BCL_HWSIM_COMPILED_HW_HPP
