/**
 * @file
 * Virtual-channel transport: moves messages between the two halves of
 * a split synchronizer across the modeled link (sections 4.3/4.4 and
 * Figure 6 of the paper: "Each synchronizer is 'split' between
 * hardware and software, and arbitration, marshaling, and
 * de-marshaling logic is generated to connect the two over the
 * physical channel").
 *
 * Flow control is credit-based: a message is picked up from the
 * producer half only when the consumer half is guaranteed to have a
 * slot when it arrives (queue occupancy + messages in flight <
 * capacity). Together with per-channel staging queues in front of the
 * shared LinkArbiter this gives the LIBDN no-deadlock /
 * no-head-of-line-blocking property.
 *
 * Credits are computed from the live consumer queue plus the
 * messages in flight, so pump() and deliver() must run on one thread
 * (CoSim's loop); nextEventAt() reads both ends.
 *
 * Contract: channels deliver every message exactly once, in order,
 * after a bus-model delay; they never overflow the consumer half
 * (credit check before pickup). Functional behavior of a partitioned
 * program is therefore independent of link timing — only reported
 * cycle counts change.
 */
#ifndef BCL_PLATFORM_CHANNEL_HPP
#define BCL_PLATFORM_CHANNEL_HPP

#include <cstdint>
#include <deque>

#include "core/partition.hpp"
#include "obs/metrics.hpp"
#include "platform/bus.hpp"
#include "runtime/store.hpp"

namespace bcl {

/** Traffic counters of one channel (written by the producer end). */
struct ChannelStats
{
    std::uint64_t messages = 0;
    std::uint64_t payloadWords = 0;
    /** Cycles pickups sat deferred for credit: each deferral episode
     *  is charged the virtual time that actually elapsed between the
     *  pump that first found the consumer full and the latest pump
     *  (accrued incrementally, so a stall still open at simulation
     *  end is counted). Historically this counted deferred pump
     *  *attempts*, which over- or under-stated congestion depending
     *  on how often the scheduler polled. */
    std::uint64_t stallCycles = 0;
    /** Distinct deferral episodes (attempts collapse into one). */
    std::uint64_t stallEvents = 0;
};

/**
 * Publish one channel's stats under the stable metric names
 * `<prefix>.messages/payload_words/stall_cycles/stall_events` —
 * the ONE place the ChannelStats field list is spelled out for the
 * registry, so benches and bench_report.py consume names instead of
 * re-listing fields. @p prefix is typically
 * "cosim.channel.<channel name>".
 */
void snapshotChannelStats(obs::MetricsRegistry &reg,
                          const std::string &prefix,
                          const ChannelStats &stats);

/** Runtime transport for one logical channel (one direction). */
class ChannelTransport
{
  public:
    /**
     * @param spec The channel (from partitioning).
     * @param tx_store Store of the producer partition.
     * @param rx_store Store of the consumer partition.
     * @param link Shared per-direction arbiter.
     * @param bus Timing parameters.
     *
     * Pickup->deliver flow arrows, stall instants and the occupancy
     * histogram are emitted whenever the global recorder / registry
     * is enabled.
     */
    ChannelTransport(const ChannelSpec &spec, Store &tx_store,
                     Store &rx_store, LinkArbiter &link,
                     const BusParams &bus);

    /**
     * Producer end. Pick up messages staged in the producer half at
     * time @p now: acquire the link for the marshaled payload size
     * and put them in flight.
     * Safe to call repeatedly with non-decreasing @p now.
     */
    void pump(std::uint64_t now);

    /**
     * Consumer end. Move messages whose arrival time has passed into
     * the consumer half. @return true when at least one message was
     * delivered.
     */
    bool deliver(std::uint64_t now);

    /** Earliest pending event (arrival or deferred pickup), or
     *  UINT64_MAX when nothing is pending. */
    std::uint64_t nextEventAt() const;

    const ChannelSpec &spec() const { return spec_; }
    const ChannelStats &stats() const { return stats_; }

  private:
    struct InFlight
    {
        Value msg;
        std::uint64_t deliverAt = 0;
    };

    int rxCreditsFree() const;

    ChannelSpec spec_;
    Store &txStore;
    Store &rxStore;
    LinkArbiter &link;
    BusParams bus;

    /** Messages on the wire, in pickup (= delivery) order. */
    std::deque<InFlight> inFlight_;

    // Producer-side deferral episode being accrued (stall fix:
    // charge deferred *cycles*, not pump attempts). stalledSince_ is
    // the last poll that charged, so open episodes accrue as they
    // are observed.
    bool stalled_ = false;
    std::uint64_t stalledSince_ = 0;

    std::uint64_t lastPumpTime = 0;
    ChannelStats stats_;

    // -- observability (inert unless the global recorder/registry is
    //    enabled) -----------------------------------------------------
    /** Flow-id base unique to this transport; pickup N and delivery
     *  N share id flowBase_ + N (exactly-once in-order delivery
     *  makes the pairing exact). */
    std::uint64_t flowBase_;
    /** Consumer-end delivery sequence. */
    std::uint64_t delivered_ = 0;
    /** Rx queue depth observed at delivery time. */
    obs::Histogram &occupancy_;
};

} // namespace bcl

#endif // BCL_PLATFORM_CHANNEL_HPP
