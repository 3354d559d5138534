#include "hwsim/compiled_hw.hpp"

#include <algorithm>

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
    for (int id : prims_.rx)
        rxCap_.push_back(program().prims[static_cast<size_t>(id)].capacity);
    rxFed_.assign(prims_.rx.size(), 0);
    txReserved_.assign(prims_.tx.size(), 0);
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
    const Store &view = mirror;
    for (size_t i = 0; i < prims_.rx.size(); i++) {
        const auto &queue = view.at(prims_.rx[i]).queue;
        // A mirror may outgrow the fifo (a remote child's is not
        // credit-bounded); the surplus waits there for free slots.
        int want = std::min(static_cast<int>(queue.size()), rxCap_[i]);
        for (int &fed = rxFed_[i]; fed < want; fed++) {
            if (!part_.pushPrim(prims_.rx[i],
                                queue[static_cast<size_t>(fed)]))
                panic("compiled_hw: a SyncRx refused a message below "
                      "its capacity");
            moved = true;
        }
    }
    for (size_t i = 0; i < prims_.tx.size(); i++) {
        int backlog =
            static_cast<int>(view.at(prims_.tx[i]).queue.size());
        if (backlog != txReserved_[i]) {
            part_.primSize(prims_.tx[i], backlog);
            txReserved_[i] = backlog;
        }
    }
    return moved;
}

bool
CompiledHwPartition::exchangeOut(Store &mirror)
{
    // No rule fired: the fifos are as exchangeIn left them.
    if (lastStepFired() == 0)
        return false;
    bool moved = false;
    Value v;
    for (size_t i = 0; i < prims_.rx.size(); i++) {
        if (rxFed_[i] == 0)
            continue;
        int held = part_.primSize(prims_.rx[i]);
        int consumed = rxFed_[i] - held;
        if (consumed < 0)
            panic("compiled_hw: rules enqueued into a SyncRx");
        if (consumed > 0)
            mirror.at(prims_.rx[i])
                .queue.pop_front(static_cast<size_t>(consumed));
        rxFed_[i] = held;
    }
    for (int id : prims_.tx) {
        for (int n = part_.primSize(id); n > 0; n--) {
            part_.popPrim(id, v);
            mirror.at(id).queue.push_back(std::move(v));
            moved = true;
        }
    }
    for (int id : prims_.dev) {
        while (part_.popDevice(id, v)) {
            mirror.at(id).queue.push_back(std::move(v));
            moved = true;
        }
    }
    return moved;
}

} // namespace bcl
