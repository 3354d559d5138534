/**
 * @file
 * Compiled hardware backend: the clock-edge counterpart of
 * runtime/gencc.hpp's CompiledPartition. A hardware partition is
 * generated by generateCpp() exactly like a software one — same
 * units, same artifact, same CompileCache key — but driven
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
 * An aggregate message popped into the mirror stays in that word form
 * (a packed Value, core/value.hpp) until a reader needs its elements,
 * so one crossing from compiled domain to compiled domain is a word
 * copy out of one instance and into the next, with no Value tree
 * built in between; an interpreted consumer unpacks it on first read.
 *
 * Cycle-exactness across the ABI. With the interpreted backend a
 * sync fifo is ONE queue that both the transport and the rules touch,
 * so guards (canEnq/canDeq) see transport-side occupancy directly.
 * The compiled instance keeps its own gen::Fifo behind the ABI, and
 * the transports keep talking to the mirror store — so as a
 * DomainExecutor, before each step (a cycle, or a burst: no channel
 * activity happens mid-burst) exchangeIn brings the instance up to
 * date with the mirror, and exchangeOut reconciles afterwards. Each
 * message crosses the ABI once:
 *
 *   SyncRx (rules only dequeue): the instance keeps what it was fed,
 *   which is always a prefix of the mirror queue. exchangeIn pushes
 *   only the mirror entries past that prefix (up to the fifo's
 *   capacity). exchangeOut reads the instance's occupancy
 *   (bcl_gen_prim_size); the prefix shrank by what the rules
 *   consumed, and that many are popped off the mirror front. The
 *   mirror stays the full-occupancy source of truth for the
 *   transport's credit checks. Only exchangeOut pops a compiled
 *   domain's SyncRx mirror queue, so the prefix never goes stale.
 *
 *   SyncTx (rules only enqueue): the instance fifo is empty between
 *   steps (exchangeOut moves every new message to the mirror tail),
 *   but the producer guard must see the not-yet-delivered backlog or
 *   it would never feel backpressure and cycle counts would diverge.
 *   exchangeIn sets the fifo's reserved-slot count to the mirror
 *   backlog (bcl_gen_prim_size again), only when the backlog changed.
 *
 *   A step that fired no rule (over the whole burst) left every fifo
 *   as exchangeIn left it, so exchangeOut returns without a call.
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

    // The incremental exchange of the file comment.
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
    std::vector<int> rxCap_;       ///< fifo capacity, ∥ prims_.rx
    std::vector<int> rxFed_;       ///< mirror prefix held, ∥ prims_.rx
    std::vector<int> txReserved_;  ///< slots reserved, ∥ prims_.tx
};

} // namespace bcl

#endif // BCL_HWSIM_COMPILED_HW_HPP
