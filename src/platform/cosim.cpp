#include "platform/cosim.hpp"

#include <algorithm>
#include <limits>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace bcl {

namespace {

/** Max software rule firings per slice before hardware catches up
 *  (bounds virtual-time skew). */
constexpr int kSwQuantum = 64;

/** Hard stop for the whole co-simulation, in FPGA cycles. */
constexpr std::uint64_t kMaxFpgaCycles = 1ull << 40;

/** The proc of @p domain in @p procs, or nullptr. */
template <class Procs>
auto
findProc(Procs &procs, const std::string &domain) -> decltype(&procs[0])
{
    for (auto &p : procs) {
        if (p.domain == domain)
            return &p;
    }
    return nullptr;
}

void
pumpAll(const std::vector<ChannelTransport *> &chans, std::uint64_t time)
{
    for (ChannelTransport *t : chans)
        t->pump(time);
}

bool
deliverAll(const std::vector<ChannelTransport *> &chans,
           std::uint64_t time)
{
    bool any = false;
    for (ChannelTransport *t : chans)
        any |= t->deliver(time);
    return any;
}

} // namespace

CoSim::CoSim(const PartitionResult &parts, CosimConfig config)
    : cfg(std::move(config))
{
    if (cfg.threads != 1)
        fatal("CosimConfig: threads must be 1 (the co-simulation loop "
              "is sequential), got " + std::to_string(cfg.threads));
    // Software domains always run in-thread — host drivers call into
    // them directly — so defaultTransport only moves HARDWARE domains
    // out of process; pointing a software domain at a remote host is
    // a configuration error.
    for (const auto &part : parts.parts) {
        if (cfg.kindOf(part.domain) == DomainKind::Software &&
            cfg.remoteEndpoints.count(part.domain)) {
            fatal("CosimConfig: software domain '" + part.domain +
                  "' cannot run remotely — host drivers call into it "
                  "directly; only Hardware domains may name a "
                  "remoteEndpoint");
        }
    }

    for (const auto &part : parts.parts) {
        auto store = std::make_unique<Store>(part.prog);
        auto exec = makeDomainExecutor(part, cfg, *store, true);
        if (cfg.kindOf(part.domain) == DomainKind::Software) {
            swProcs.push_back(
                {part.domain, std::move(store), std::move(exec), {}});
        } else {
            hwProcs.push_back(
                {part.domain, std::move(store), std::move(exec)});
        }
    }

    for (const auto &chan : parts.channels) {
        auto key = std::make_pair(chan.fromDomain, chan.toDomain);
        auto it = links.find(key);
        if (it == links.end()) {
            it = links.emplace(key, std::make_unique<LinkArbiter>())
                     .first;
        }
        // Each (from, to) pair gets the BusParams its topology rule
        // resolves to — heterogeneous platforms time each link
        // direction differently (resolution is total or fatal here,
        // before any cycle runs).
        transports.push_back(std::make_unique<ChannelTransport>(
            chan, storeOf(chan.fromDomain), storeOf(chan.toDomain),
            *it->second,
            cfg.platform.resolveLink(chan.fromDomain, chan.toDomain)));
        channelsOf(chan.fromDomain).out.push_back(transports.back().get());
        channelsOf(chan.toDomain).in.push_back(transports.back().get());
    }
}

CoSim::Channels &
CoSim::channelsOf(const std::string &domain)
{
    if (SwProc *p = findProc(swProcs, domain))
        return p->chans;
    if (HwProc *p = findProc(hwProcs, domain))
        return p->chans;
    panic("channelsOf: no domain '" + domain + "'");
}

void
CoSim::setDriver(const std::string &domain, SwDriver driver)
{
    SwProc *p = findProc(swProcs, domain);
    if (!p)
        panic("setDriver: no software domain '" + domain + "'");
    p->driver = std::move(driver);
}

Store &
CoSim::storeOf(const std::string &domain)
{
    if (SwProc *p = findProc(swProcs, domain))
        return *p->store;
    if (HwProc *p = findProc(hwProcs, domain))
        return *p->store;
    panic("storeOf: no domain '" + domain + "'");
}

Interp &
CoSim::swInterp(const std::string &domain)
{
    SwProc *p = findProc(swProcs, domain);
    if (!p)
        panic("swInterp: no software domain '" + domain + "'");
    return *p->exec->accountingInterp();
}

const CompiledPartition *
CoSim::swCompiled(const std::string &domain) const
{
    const SwProc *p = findProc(swProcs, domain);
    return p ? p->exec->compiledPartition() : nullptr;
}

const HwStats *
CoSim::hwStats(const std::string &domain) const
{
    const HwProc *p = findProc(hwProcs, domain);
    return p ? p->exec->hwStats() : nullptr;
}

pid_t
CoSim::remotePid(const std::string &domain) const
{
    const HwProc *p = findProc(hwProcs, domain);
    return p ? p->exec->childPid() : -1;
}

void
CoSim::rebindCompiledThreads()
{
    for (auto &p : swProcs)
        p.exec->rebindThread();
    for (auto &p : hwProcs)
        p.exec->rebindThread();
}

std::uint64_t
CoSim::now() const
{
    double t = 0;
    for (const auto &p : swProcs)
        t = std::max(t, p.time);
    for (const auto &p : hwProcs)
        t = std::max(t, static_cast<double>(p.time));
    return static_cast<std::uint64_t>(t);
}

std::uint64_t
CoSim::swWork() const
{
    std::uint64_t w = 0;
    for (const auto &p : swProcs)
        w += p.exec->port()->work();
    return w;
}

void
CoSim::snapshotMetrics(obs::MetricsRegistry &reg) const
{
    reg.gauge("cosim.fpga_cycles")
        .set(static_cast<double>(now()));
    reg.gauge("cosim.sw_work").set(static_cast<double>(swWork()));
    for (const auto &p : swProcs) {
        reg.gauge("cosim.domain." + p.domain + ".cycles")
            .set(p.time);
    }
    for (const auto &p : hwProcs) {
        reg.gauge("cosim.domain." + p.domain + ".cycles")
            .set(static_cast<double>(p.time));
        reg.gauge("cosim.domain." + p.domain + ".settled_cycles")
            .set(static_cast<double>(p.settledCycles));
    }
    for (const auto &t : transports) {
        snapshotChannelStats(reg,
                             "cosim.channel." + t->spec().name,
                             t->stats());
    }
    for (const auto &u : linkUsage()) {
        const std::string base =
            "cosim.link." + u.from + "_" + u.to;
        reg.gauge(base + ".busy_cycles")
            .set(static_cast<double>(u.busyCycles));
        reg.gauge(base + ".grants")
            .set(static_cast<double>(u.grants));
    }
}

std::vector<CoSim::LinkUsage>
CoSim::linkUsage() const
{
    std::vector<LinkUsage> out;
    for (const auto &[key, arb] : links) {
        LinkUsage u;
        u.from = key.first;
        u.to = key.second;
        u.linkClass = cfg.platform.resolveLinkClass(u.from, u.to);
        u.busyCycles = arb->busy();
        u.grants = arb->grantCount();
        out.push_back(std::move(u));
    }
    return out;
}

std::uint64_t
CoSim::nextChannelEvent() const
{
    std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
    for (const auto &t : transports)
        next = std::min(next, t->nextEventAt());
    return next;
}

/** Try the host driver once; true when it made progress. */
bool
CoSim::tryDriver(SwProc &sw)
{
    if (!sw.driver.step || sw.driverBlocked)
        return false;
    std::uint64_t w = sw.driver.step(*sw.exec->port());
    if (w > 0) {
        sw.time += static_cast<double>(w) *
                   (kSwCyclesPerWork / cfg.platform.cpuClockRatio);
        sw.exec->poke();
        return true;
    }
    sw.driverBlocked = true;
    return false;
}

/** One software slice: up to kSwQuantum units of the executor's own
 *  budget (ExecStep::consumed); the host driver runs when it idles. */
bool
CoSim::sliceSoftware(SwProc &sw)
{
    DomainExecutor &ex = *sw.exec;
    bool progress = false;
    int used = 0;
    while (used < kSwQuantum) {
        // Pump on every step: a transfer deferred for credits must
        // start as soon as the consumer drains, even if no further
        // producer-side rule fires.
        pumpAll(sw.chans.out, static_cast<std::uint64_t>(sw.time));
        if (deliverAll(sw.chans.in,
                       static_cast<std::uint64_t>(sw.time))) {
            ex.poke();
            sw.driverBlocked = false;
        }
        bool fed = ex.exchangeIn(*sw.store);
        ExecStep r = ex.step(
            static_cast<std::uint64_t>(kSwQuantum - used));
        bool produced = ex.exchangeOut(*sw.store);
        used += static_cast<int>(r.consumed);
        sw.time += r.cycles;
        if (r.fired > 0)
            progress = true;
        if (produced)
            pumpAll(sw.chans.out, static_cast<std::uint64_t>(sw.time));
        if (fed || !ex.idle())
            continue;
        // Quiescent: one driver attempt, then yield the slice.
        if (tryDriver(sw)) {
            progress = true;
            continue;
        }
        break;
    }
    return progress;
}

/** One hardware slice: each step offers the rest of the horizon,
 *  which in-process executors take one cycle at a time. A settled
 *  domain's cycle is accounted without running it (HwProc::settled). */
bool
CoSim::sliceHardware(HwProc &hw, std::uint64_t horizon)
{
    DomainExecutor &ex = *hw.exec;
    bool progress = false;
    bool active = true;
    while (hw.time < horizon || active) {
        pumpAll(hw.chans.out, hw.time);
        if (deliverAll(hw.chans.in, hw.time))
            progress = true;
        ExecStep r;
        if (hw.settled && hw.store->stamp() == hw.settledStamp) {
            r = ex.settledStep();
            hw.settledCycles++;
        } else {
            ex.exchangeIn(*hw.store);
            r = ex.step(horizon > hw.time ? horizon - hw.time : 1);
            ex.exchangeOut(*hw.store);
            hw.settled = r.fired == 0;
            hw.settledStamp = hw.store->stamp();
        }
        hw.time += r.consumed;
        active = !ex.idle();
        if (r.fired > 0) {
            progress = true;
            pumpAll(hw.chans.out, hw.time);
            continue;
        }
        if (hw.time >= horizon)
            break;
        // Idle inside the horizon: jump to the next delivery
        // addressed to us (or stop).
        std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
        for (const ChannelTransport *t : hw.chans.in)
            next = std::min(next, t->nextEventAt());
        if (next == std::numeric_limits<std::uint64_t>::max() ||
            next >= horizon) {
            break;
        }
        hw.time = std::max(hw.time, next);
    }
    return progress;
}

/** Hardware catches up to the latest software time plus one bus
 *  latency (so in-flight messages can land). */
std::uint64_t
CoSim::hwHorizon() const
{
    std::uint64_t horizon = 1;
    for (const auto &sw : swProcs)
        horizon = std::max(horizon, static_cast<std::uint64_t>(sw.time) + 1);
    std::uint64_t chan_next = nextChannelEvent();
    if (chan_next != std::numeric_limits<std::uint64_t>::max())
        horizon = std::max(horizon, chan_next + 1);
    return horizon;
}

/** Nothing ran: move every process to just past channel event
 *  @p next (+1: the delivery must be visible in the cycle that
 *  observes it) and wake the software domains. */
void
CoSim::advancePast(std::uint64_t next)
{
    for (auto &sw : swProcs) {
        sw.time = std::max(sw.time, static_cast<double>(next + 1));
        sw.exec->poke();
        sw.driverBlocked = false;
    }
    for (auto &hw : hwProcs)
        hw.time = std::max(hw.time, next + 1);
}

std::uint64_t
CoSim::run(const std::function<bool(CoSim &)> &done)
{
    while (!done(*this)) {
        if (now() > kMaxFpgaCycles)
            fatal("co-simulation exceeded kMaxFpgaCycles");

        bool progress = false;

        // One span per domain slice, so a serving session's timeline
        // shows which domain each stretch of cosim time went to.
        for (auto &sw : swProcs) {
            obs::TraceSpan span(sw.domain.c_str(), "cosim.slice");
            progress |= sliceSoftware(sw);
        }

        const std::uint64_t horizon = hwHorizon();
        for (auto &hw : hwProcs) {
            obs::TraceSpan span(hw.domain.c_str(), "cosim.slice");
            progress |= sliceHardware(hw, horizon);
        }

        if (progress)
            continue;

        // Nothing ran. If channel events are pending, advance every
        // blocked process to the event time, restart any deferred
        // pickups, and retry.
        std::uint64_t next = nextChannelEvent();
        if (next != std::numeric_limits<std::uint64_t>::max()) {
            advancePast(next);
            for (auto &sw : swProcs)
                pumpAll(sw.chans.out, static_cast<std::uint64_t>(sw.time));
            for (auto &hw : hwProcs)
                pumpAll(hw.chans.out, hw.time);
            continue;
        }

        // True quiescence: acceptable only when done() says so - the
        // caller's predicate runs once more; otherwise deadlock.
        if (done(*this))
            break;
        fatal("co-simulation deadlock: all partitions quiescent, no "
              "messages in flight, and the completion predicate is "
              "not satisfied");
    }
    return now();
}

} // namespace bcl
