/**
 * @file
 * makeDomainExecutor and the two software executors (the hardware
 * ones are ClockSim, CompiledHwPartition and RemoteHwPartition).
 */
#include "platform/cosim.hpp"

#include <utility>

namespace bcl {

namespace {

/**
 * Virtual-time charge (CPU cycles) per rule firing of a compiled
 * software domain. Compiled execution does not model work — it IS the
 * generated code running natively — so virtual time is approximated
 * per firing. Latency-insensitive interfaces make functional results
 * independent of this value; only reported cycle counts move.
 */
constexpr double kSwCompiledCyclesPerFiring = 200.0;

/** A software domain under a RuleEngine over the reference
 *  interpreter, running on the mirror store itself. */
class InterpretedSw final : public DomainExecutor, public SwPort
{
  public:
    InterpretedSw(const ElabProgram &prog, Store &store,
                  const CosimConfig &cfg)
        : interp_(prog, store), engine_(interp_, SwStrategy::Dataflow),
          workToCycles_(kSwCyclesPerWork / cfg.platform.cpuClockRatio)
    {
        interp_.costs() = cfg.swCosts;
    }

    /** One slice quantum per firing; time from modeled work. */
    ExecStep
    step(std::uint64_t) override
    {
        last_ = engine_.step();
        const std::uint64_t fired = last_.fired ? 1 : 0;
        return {fired, static_cast<double>(last_.workDelta) * workToCycles_,
                fired};
    }

    /** Rules write the mirror directly: a firing may have enqueued
     *  into a SyncTx. */
    bool exchangeOut(Store &) override { return last_.fired; }
    bool idle() const override { return last_.rule < 0; }
    void poke() override { engine_.poke(); }

    SwPort *port() override { return this; }
    Interp *accountingInterp() override { return &interp_; }

    bool
    callActionMethod(int meth_id,
                     const std::vector<Value> &args) override
    {
        return interp_.callActionMethod(meth_id, args);
    }
    std::uint64_t work() const override { return interp_.stats().work; }
    Store &store() override { return interp_.store(); }
    Interp *interp() override { return &interp_; }

  private:
    Interp interp_;
    RuleEngine engine_;
    const double workToCycles_;
    StepResult last_;
};

/** A software domain as a compiled shared object behind its mirror
 *  store: feed SyncRx in, run to quiescence, drain SyncTx and device
 *  output out. */
class CompiledSw final : public DomainExecutor, public SwPort
{
  public:
    CompiledSw(std::shared_ptr<const CompiledArtifact> artifact,
               const ElabProgram &prog, Store &mirror,
               const CosimConfig &cfg)
        : part_(std::move(artifact)), mirror_(mirror), prims_(prog),
          idleInterp_(prog, mirror),
          cyclesPerFiring_(kSwCompiledCyclesPerFiring /
                           cfg.platform.cpuClockRatio)
    {
    }

    bool
    exchangeIn(Store &mirror) override
    {
        bool moved = false;
        for (int id : prims_.rx) {
            const auto &queue = std::as_const(mirror).at(id).queue;
            // Move what the compiled FIFO accepts; leave the rest
            // staged in the mirror (occupancy splits across the two,
            // so the credit check on the mirror stays conservative
            // enough — LIBDN buffering is functionally transparent
            // anyway).
            size_t accepted = 0;
            while (accepted < queue.size() &&
                   part_.pushPrim(id, queue[accepted]))
                accepted++;
            if (accepted > 0) {
                mirror.at(id).queue.pop_front(accepted);
                moved = true;
            }
        }
        return moved;
    }

    /** One slice quantum per call; time charged per firing. */
    ExecStep
    step(std::uint64_t) override
    {
        lastFired_ = part_.runToQuiescence();
        return {1, static_cast<double>(lastFired_) * cyclesPerFiring_,
                lastFired_};
    }

    bool
    exchangeOut(Store &mirror) override
    {
        bool moved = false;
        Value v;
        for (int id : prims_.tx) {
            while (part_.popPrim(id, v)) {
                mirror.at(id).queue.push_back(std::move(v));
                moved = true;
            }
        }
        // Devices accumulate in the mirror store so the test-visible
        // output (PrimState::queue) keeps the interpreter's
        // cumulative semantics.
        for (int id : prims_.dev) {
            while (part_.popDevice(id, v)) {
                mirror.at(id).queue.push_back(std::move(v));
                moved = true;
            }
        }
        return moved;
    }

    bool idle() const override { return lastFired_ == 0; }
    void rebindThread() override { part_.rebindThread(); }

    SwPort *port() override { return this; }
    Interp *accountingInterp() override { return &idleInterp_; }
    const CompiledPartition *compiledPartition() const override
    {
        return &part_;
    }

    bool
    callActionMethod(int meth_id,
                     const std::vector<Value> &args) override
    {
        return part_.callActionMethod(meth_id, args);
    }
    std::uint64_t work() const override { return 0; }
    Store &store() override { return mirror_; }

  private:
    CompiledPartition part_;
    Store &mirror_;
    const MirrorPrims prims_;
    Interp idleInterp_;  ///< never runs: swInterp's stats stay zero
    const double cyclesPerFiring_;
    std::uint64_t lastFired_ = 0;
};

/** The artifact of a compiled partition: compileProvider's when set
 *  (the CompileCache path), else a private compile. */
std::shared_ptr<const CompiledArtifact>
resolveArtifact(const ElabProgram &prog, const CosimConfig &cfg)
{
    GenccOptions opts;
    opts.mode = cfg.swGenMode;
    if (cfg.compileProvider)
        return cfg.compileProvider(prog, opts);
    return std::make_shared<const CompiledArtifact>(prog, opts);
}

} // namespace

std::unique_ptr<DomainExecutor>
makeDomainExecutor(const PartitionPart &part, const CosimConfig &cfg,
                   Store &mirror, bool per_cycle)
{
    const ElabProgram &prog = part.prog;
    if (cfg.kindOf(part.domain) == DomainKind::Software) {
        if (cfg.swBackend == SwBackend::Interpreted)
            return std::make_unique<InterpretedSw>(prog, mirror, cfg);
        return std::make_unique<CompiledSw>(
            cfg.swArtifact ? cfg.swArtifact : resolveArtifact(prog, cfg),
            prog, mirror, cfg);
    }

    const TransportKind tk = cfg.transportOf(part.domain);
    if (tk != TransportKind::InThread) {
        RemoteOptions ropts;
        ropts.timeoutMs = cfg.transportTimeoutMs;
        auto ep = cfg.remoteEndpoints.find(part.domain);
        if (tk == TransportKind::Tcp && ep != cfg.remoteEndpoints.end()) {
            return std::make_unique<RemoteHwPartition>(
                prog, ep->second, part.domain, ropts);
        }
        // The forked child builds its executor through this factory
        // too, in-thread. A compiled artifact is resolved here, in
        // the coordinator, so the child only instantiates it.
        CosimConfig local = cfg;
        local.defaultTransport = TransportKind::InThread;
        if (cfg.hwBackend == HwBackend::Compiled) {
            auto artifact = resolveArtifact(prog, cfg);
            local.compileProvider = [artifact](const ElabProgram &,
                                               const GenccOptions &) {
                return artifact;
            };
        }
        return std::make_unique<RemoteHwPartition>(
            prog, tk, part.domain, ropts,
            [&part, local](Store &store) {
                return makeDomainExecutor(part, local, store, false);
            });
    }

    std::unique_ptr<ClockedPartition> hw;
    if (cfg.hwBackend == HwBackend::Compiled) {
        hw = std::make_unique<CompiledHwPartition>(
            resolveArtifact(prog, cfg));
    } else {
        hw = std::make_unique<ClockSim>(prog, mirror);
    }
    hw->pacePerCycle(per_cycle);
    return hw;
}

} // namespace bcl
