#include "platform/channel.hpp"

#include <limits>
#include <utility>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace bcl {

void
snapshotChannelStats(obs::MetricsRegistry &reg,
                     const std::string &prefix,
                     const ChannelStats &stats)
{
    reg.counter(prefix + ".messages").set(stats.messages);
    reg.counter(prefix + ".payload_words").set(stats.payloadWords);
    reg.counter(prefix + ".stall_cycles").set(stats.stallCycles);
    reg.counter(prefix + ".stall_events").set(stats.stallEvents);
}

ChannelTransport::ChannelTransport(const ChannelSpec &spec,
                                   Store &tx_store, Store &rx_store,
                                   LinkArbiter &link_arb,
                                   const BusParams &bus_params)
    : spec_(spec), txStore(tx_store), rxStore(rx_store), link(link_arb),
      bus(bus_params), flowBase_(obs::TraceRecorder::nextFlowBase()),
      occupancy_(obs::metrics().histogram(
          "cosim.channel.occupancy",
          obs::Histogram::exponentialBounds(1.0, 2.0, 12)))
{
    if (spec_.txPrim < 0 || spec_.rxPrim < 0)
        panic("channel '" + spec_.name + "' endpoints unresolved");
}

int
ChannelTransport::rxCreditsFree() const
{
    const PrimState &rx = std::as_const(rxStore).at(spec_.rxPrim);
    return spec_.capacity - static_cast<int>(rx.queue.size()) -
           static_cast<int>(inFlight_.size());
}

void
ChannelTransport::pump(std::uint64_t now)
{
    lastPumpTime = now;
    // Read through the const view: only a real pickup may move the
    // SyncTx's version (store.hpp), or an idle pump would make every
    // rule that uses it re-run instead of replay.
    while (!std::as_const(txStore).at(spec_.txPrim).queue.empty()) {
        if (rxCreditsFree() <= 0) {
            // Consumer full: leave staged; producer back-pressure
            // propagates through the SyncTx guard. Accrue the
            // deferral incrementally — elapsed cycles since the last
            // poll, never per-attempt counts (same-time polls charge
            // zero) — so a stall still open when the simulation ends
            // is charged up to the last pump rather than dropped.
            if (!stalled_) {
                stalled_ = true;
                stats_.stallEvents++;
                obs::trace().instant(spec_.name.c_str(), "stall",
                                     "virtual_time",
                                     static_cast<std::int64_t>(now));
            } else {
                stats_.stallCycles += now - stalledSince_;
            }
            stalledSince_ = now;
            break;
        }
        if (stalled_) {
            stats_.stallCycles += now - stalledSince_;
            stalled_ = false;
        }
        int words = spec_.payloadWords;
        std::uint64_t occupancy = bus.occupancyCycles(words);
        std::uint64_t start = link.acquire(now, occupancy);
        std::uint64_t arrive = start + occupancy + bus.requestLatency;

        // The structure crosses directly; the word count above
        // drives the timing, and marshal bit-exactness is covered by
        // its own tests.
        PrimState &tx = txStore.at(spec_.txPrim);
        inFlight_.push_back({tx.queue.front(), arrive});
        tx.queue.pop_front();
        stats_.messages++;
        stats_.payloadWords += static_cast<std::uint64_t>(words);
        // Pickup N pairs with delivery N (exactly-once, in order),
        // so the flow arrow needs no per-message state.
        obs::trace().flowStart(spec_.name.c_str(), "channel",
                               flowBase_ + stats_.messages);
    }
}

bool
ChannelTransport::deliver(std::uint64_t now)
{
    // Nothing due: leave the SyncRx's version alone (see pump).
    if (inFlight_.empty() || inFlight_.front().deliverAt > now)
        return false;
    PrimState &rx = rxStore.at(spec_.rxPrim);
    while (!inFlight_.empty() && inFlight_.front().deliverAt <= now) {
        if (static_cast<int>(rx.queue.size()) >= spec_.capacity)
            panic("channel '" + spec_.name +
                  "': credit accounting violated (rx overflow)");
        rx.queue.push_back(std::move(inFlight_.front().msg));
        inFlight_.pop_front();
        delivered_++;
        obs::trace().flowEnd(spec_.name.c_str(), "channel",
                             flowBase_ + delivered_);
    }
    occupancy_.observe(static_cast<double>(rx.queue.size()));
    return true;
}

std::uint64_t
ChannelTransport::nextEventAt() const
{
    std::uint64_t next = inFlight_.empty()
                             ? std::numeric_limits<std::uint64_t>::max()
                             : inFlight_.front().deliverAt;
    const PrimState &tx = std::as_const(txStore).at(spec_.txPrim);
    if (!tx.queue.empty() && rxCreditsFree() > 0) {
        std::uint64_t pickup =
            lastPumpTime > link.freeTime() ? lastPumpTime
                                           : link.freeTime();
        if (pickup < next)
            next = pickup;
    }
    return next;
}

} // namespace bcl
