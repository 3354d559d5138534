#include "platform/channel.hpp"

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
                                   const BusParams &bus_params,
                                   bool threaded)
    : spec_(spec), txStore(tx_store), rxStore(rx_store), link(link_arb),
      bus(bus_params), threaded_(threaded),
      // Credits bound in-flight occupancy by the synchronizer
      // capacity, so the ring can never be asked to hold more.
      ring_(static_cast<size_t>(spec.capacity > 0 ? spec.capacity : 1)),
      flowBase_(obs::TraceRecorder::nextFlowBase()),
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
    if (threaded_) {
        // Producer side must not read the consumer's live queue; the
        // atomic charge (conservatively) stands in for it.
        return spec_.capacity - charged_.load(std::memory_order_acquire);
    }
    const PrimState &rx = rxStore.at(spec_.rxPrim);
    return spec_.capacity - static_cast<int>(rx.queue.size()) -
           static_cast<int>(ring_.size());
}

void
ChannelTransport::pump(std::uint64_t now)
{
    lastPumpTime = now;
    PrimState &tx = txStore.at(spec_.txPrim);
    while (!tx.queue.empty()) {
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
        Value msg = tx.queue.front();
        int words = spec_.payloadWords;
        std::uint64_t occupancy = bus.occupancyCycles(words);
        std::uint64_t start = link.acquire(now, occupancy);
        std::uint64_t arrive = start + occupancy + bus.requestLatency;

        tx.queue.pop_front();
        InFlight f;
        f.deliverAt = arrive;
        if (threaded_) {
            // Marshal for real: COW Values share representation with
            // whatever the producer still holds, and Value's
            // uniqueness gate is not a cross-thread synchronization
            // point — only plain words may cross to the consumer.
            f.words = marshalValue(msg);
        } else {
            // Sequentially the structure crosses directly; the word
            // count above still drives the timing, and marshal
            // bit-exactness is covered by its own tests.
            f.msg = std::move(msg);
        }
        if (threaded_)
            charged_.fetch_add(1, std::memory_order_acq_rel);
        if (!ring_.push(std::move(f))) {
            // Unreachable while the credit invariant holds: in-flight
            // count never exceeds capacity <= ring capacity.
            panic("channel '" + spec_.name +
                  "': in-flight ring overflow (credit accounting "
                  "violated)");
        }
        stats_.messages++;
        stats_.payloadWords += static_cast<std::uint64_t>(words);
        // Pickup N pairs with delivery N (exactly-once, in order),
        // so the flow arrow needs no state in the ring.
        obs::trace().flowStart(spec_.name.c_str(), "channel",
                               flowBase_ + stats_.messages);
    }
}

bool
ChannelTransport::deliver(std::uint64_t now)
{
    PrimState &rx = rxStore.at(spec_.rxPrim);
    if (threaded_) {
        // Consumer end: fold the queue drain observed since the last
        // call back into the credit charge.
        size_t sz = rx.queue.size();
        if (sz < lastRxSize_)
            freed_ += static_cast<int>(lastRxSize_ - sz);
        lastRxSize_ = sz;
    }
    bool any = false;
    while (InFlight *f = ring_.front()) {
        if (f->deliverAt > now || (threaded_ && visible_ == 0))
            break;
        if (static_cast<int>(rx.queue.size()) >= spec_.capacity)
            panic("channel '" + spec_.name +
                  "': credit accounting violated (rx overflow)");
        if (threaded_) {
            rx.queue.push_back(
                demarshalValue(spec_.msgType, f->words));
        } else {
            rx.queue.push_back(std::move(f->msg));
        }
        ring_.pop();
        if (threaded_)
            visible_--;
        any = true;
        delivered_++;
        obs::trace().flowEnd(spec_.name.c_str(), "channel",
                             flowBase_ + delivered_);
    }
    if (any)
        occupancy_.observe(static_cast<double>(rx.queue.size()));
    if (threaded_)
        lastRxSize_ = rx.queue.size();
    return any;
}

void
ChannelTransport::barrier()
{
    charged_.fetch_sub(std::exchange(freed_, 0), std::memory_order_acq_rel);
    visible_ = ring_.size();
}

std::uint64_t
ChannelTransport::nextEventAt() const
{
    std::uint64_t next = nextArrivalAt();
    const PrimState &tx = txStore.at(spec_.txPrim);
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
