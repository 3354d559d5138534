#include "serve/session.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace bcl {
namespace serve {

Session::Session(int id, const PartitionResult &parts,
                 CosimConfig cfg, StreamSpec spec)
    : id_(id), spec_(std::move(spec))
{
    if (!spec_.progress)
        fatal("serve: StreamSpec needs a progress counter");
    cosim_ = std::make_unique<CoSim>(parts, std::move(cfg));
    if (spec_.driver.step)
        cosim_->setDriver(spec_.swDomain, spec_.driver);
    finished_ = spec_.target == 0;
}

bool
Session::advance()
{
    if (finished_)
        return false;
    const std::uint64_t goal =
        std::min(spec_.progress(*cosim_) + 1, spec_.target);
    cosim_->run([&](CoSim &cs) {
        return spec_.progress(cs) >= goal;
    });
    // Hand compiled-instance ownership back before the session is
    // requeued; the pool's queue mutex is the happens-before edge to
    // the next owning worker.
    cosim_->rebindCompiledThreads();
    finished_ = spec_.progress(*cosim_) >= spec_.target;
    return !finished_;
}

} // namespace serve
} // namespace bcl
