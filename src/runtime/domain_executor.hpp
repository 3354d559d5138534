/**
 * @file
 * The one shape every partition backend presents to the
 * co-simulation (§4.4: a partition touches the rest of the system
 * only through its synchronizer halves). Channel transports always
 * work on the domain's mirror Store; each slice step is
 * exchangeIn(mirror) -> step(budget) -> exchangeOut(mirror), or one
 * settledStep() when a hardware domain provably has nothing to do,
 * and each backend keeps its own mirror protocol behind the two
 * exchanges.
 * makeDomainExecutor (platform/cosim.hpp) is the one place that
 * picks a backend.
 */
#ifndef BCL_RUNTIME_DOMAIN_EXECUTOR_HPP
#define BCL_RUNTIME_DOMAIN_EXECUTOR_HPP

#include <cstdint>
#include <vector>

#include <sys/types.h>

#include "core/elaborate.hpp"
#include "runtime/store.hpp"

namespace bcl {

class CompiledPartition;
class Interp;

/** Per-run counters of a hardware partition. */
struct HwStats
{
    std::uint64_t cycles = 0;
    std::uint64_t rulesFired = 0;
    std::uint64_t busyCycles = 0;  ///< cycles with >= 1 firing
    std::vector<std::uint64_t> perRuleFires;
};

/**
 * Backend-neutral handle a SwDriver uses to feed a software domain:
 * the same driver closure works whether the domain runs interpreted
 * or compiled. Only the operations a host "up the stack" legitimately
 * has are exposed — transactional root-method calls and the domain's
 * committed state (for compiled domains, the mirror Store that
 * channel transports and done-predicates already read).
 */
class SwPort
{
  public:
    virtual ~SwPort() = default;

    /** Invoke a root-interface action method transactionally.
     *  @return true when it committed. */
    virtual bool callActionMethod(int meth_id,
                                  const std::vector<Value> &args) = 0;

    /** Modeled work consumed so far. Compiled domains do not model
     *  work; they report 0 and drivers fall back to their own
     *  per-call estimate. */
    virtual std::uint64_t work() const = 0;

    /** The domain's committed state (mirror Store when compiled). */
    virtual Store &store() = 0;

    /** The interpreter behind this port; nullptr when compiled. */
    virtual Interp *interp() { return nullptr; }
};

/** Outcome of one DomainExecutor::step. */
struct ExecStep
{
    /** Budget units used: cycles clocked (hardware) or slice quanta
     *  (software: per firing interpreted, per call compiled). */
    std::uint64_t consumed = 0;
    double cycles = 0;          ///< virtual time taken, FPGA cycles
    std::uint64_t fired = 0;    ///< rules fired
};

/** The prims a domain exchanges with its mirror store, by role. */
struct MirrorPrims
{
    explicit MirrorPrims(const ElabProgram &prog)
    {
        for (const auto &prim : prog.prims) {
            if (prim.kind == "SyncRx")
                rx.push_back(prim.id);
            else if (prim.kind == "SyncTx")
                tx.push_back(prim.id);
            else if (prim.kind == "AudioDev")
                dev.push_back(prim.id);
        }
    }

    std::vector<int> rx;   ///< SyncRx: channel deliveries in
    std::vector<int> tx;   ///< SyncTx: messages out
    std::vector<int> dev;  ///< AudioDev: device output
};

/** One partition's backend (file comment). */
class DomainExecutor
{
  public:
    virtual ~DomainExecutor() = default;

    /** Move staged deliveries from the mirror into the backend.
     *  @return true when anything moved. */
    virtual bool exchangeIn(Store &) { return false; }

    /** Run up to @p budget units (see ExecStep::consumed). */
    virtual ExecStep step(std::uint64_t budget) = 0;

    /** Move produced messages into the mirror. @return true when
     *  the mirror may hold new outbound messages. */
    virtual bool exchangeOut(Store &) { return false; }

    /**
     * Account one cycle of a settled hardware domain without clocking
     * it: the last step fired no rule and neither exchange has had
     * anything to move since, so the cycle step() would run fires
     * nothing either (no primitive changes state on an edge unless a
     * rule calls it). Returns, and counts into hwStats(), exactly
     * what that idle step would have: consumed 1, fired 0, idle()
     * afterwards. The default runs the step.
     */
    virtual ExecStep settledStep() { return step(1); }

    /** True when the last step found nothing to do. */
    virtual bool idle() const = 0;

    /** External state changed (delivery, driver call). */
    virtual void poke() {}

    /** Release thread ownership of a thread-confined backend (see
     *  runtime/gencc.hpp); call only at a synchronization point. */
    virtual void rebindThread() {}

    /** Hardware counters; nullptr for software executors. */
    virtual const HwStats *hwStats() const { return nullptr; }

    /** Software executors: the port host drivers call through. */
    virtual SwPort *port() { return nullptr; }

    /** Software executors: the interpreter whose stats account for
     *  the domain (an idle one, stats zero, when compiled). */
    virtual Interp *accountingInterp() { return nullptr; }

    /** Compiled software executors: the live instance. */
    virtual const CompiledPartition *compiledPartition() const
    {
        return nullptr;
    }

    /** Pid of the child process running the partition, or -1. */
    virtual pid_t childPid() const { return -1; }
};

} // namespace bcl

#endif // BCL_RUNTIME_DOMAIN_EXECUTOR_HPP
