#include "hwsim/compiled_hw.hpp"

#include "common/logging.hpp"
#include "core/schedule.hpp"

namespace bcl {

CompiledHwPartition::CompiledHwPartition(const ElabProgram &prog,
                                        GenccOptions opts)
    : part_(prog, std::move(opts)), prims_(part_.program())
{
    checkHwCapable();
}

CompiledHwPartition::CompiledHwPartition(
    std::shared_ptr<const CompiledArtifact> artifact)
    : part_(std::move(artifact)), prims_(part_.program())
{
    checkHwCapable();
}

void
CompiledHwPartition::checkHwCapable()
{
    if (!part_.artifact()->hwValid()) {
        // Recompute the diagnostic the generator saw; a reused/stale
        // artifact whose program copy looks valid gets the generic
        // message.
        std::string err = hardwareValidationError(program());
        fatal("compiled_hw: partition is not implementable as "
              "synchronous hardware — " +
              (err.empty() ? std::string("artifact was generated "
                                         "without a clock-edge "
                                         "scheduler")
                           : err));
    }
    stats_.perRuleFires.assign(program().rules.size(), 0);
    // A zero template per SyncTx for the occupancy prefill.
    for (int id : prims_.tx)
        txZero_.push_back(
            program().prims[static_cast<size_t>(id)].type->zeroValue());
    rxFed_.assign(prims_.rx.size(), 0);
    txPre_.assign(prims_.tx.size(), 0);
}

int
CompiledHwPartition::clockEdge()
{
    part_.checkThread("hw cycle");
    int fired =
        part_.artifact_->fnHwCycle_(part_.inst_);
    if (fired < 0)
        panic("compiled_hw: bcl_gen_hw_cycle on a stub (artifact "
              "changed underneath us?)");
    return fired;
}

const HwStats &
CompiledHwPartition::stats() const
{
    for (size_t r = 0; r < stats_.perRuleFires.size(); r++) {
        stats_.perRuleFires[r] = part_.artifact_->fnHwStats_(
            part_.inst_, 3, static_cast<int>(r));
    }
    return stats_;
}

bool
CompiledHwPartition::exchangeIn(Store &mirror)
{
    bool moved = false;
    for (size_t i = 0; i < prims_.rx.size(); i++) {
        const auto &queue = mirror.at(prims_.rx[i]).queue;
        int fed = 0;
        while (fed < static_cast<int>(queue.size()) &&
               part_.pushPrim(prims_.rx[i],
                              queue[static_cast<size_t>(fed)]))
            fed++;
        rxFed_[i] = fed;
        moved |= fed > 0;
    }
    for (size_t i = 0; i < prims_.tx.size(); i++) {
        const auto &queue = mirror.at(prims_.tx[i]).queue;
        int pre = 0;
        while (pre < static_cast<int>(queue.size()) &&
               part_.pushPrim(prims_.tx[i], txZero_[i]))
            pre++;
        txPre_[i] = pre;
    }
    return moved;
}

bool
CompiledHwPartition::exchangeOut(Store &mirror)
{
    bool moved = false;
    Value v;
    for (size_t i = 0; i < prims_.rx.size(); i++) {
        int rem = 0;
        while (part_.popPrim(prims_.rx[i], v))
            rem++;
        int consumed = rxFed_[i] - rem;
        if (consumed < 0)
            panic("compiled_hw: rules enqueued into a SyncRx");
        mirror.at(prims_.rx[i])
            .queue.pop_front(static_cast<size_t>(consumed));
    }
    for (size_t i = 0; i < prims_.tx.size(); i++) {
        auto &queue = mirror.at(prims_.tx[i]).queue;
        for (int k = 0; k < txPre_[i]; k++) {
            if (!part_.popPrim(prims_.tx[i], v))
                panic("compiled_hw: rules consumed a SyncTx prefill");
        }
        while (part_.popPrim(prims_.tx[i], v)) {
            queue.push_back(std::move(v));
            moved = true;
        }
    }
    for (int id : prims_.dev) {
        auto &queue = mirror.at(id).queue;
        while (part_.popDevice(id, v)) {
            queue.push_back(std::move(v));
            moved = true;
        }
    }
    return moved;
}

} // namespace bcl
