/**
 * @file
 * Physical-channel timing model. Substitutes for the paper's Xilinx
 * ML507 platform (PPC440 at 400 MHz talking to FPGA fabric at 100 MHz
 * over LocalLink with HDMA engines) and for the PCIe host path. All
 * times are in FPGA cycles (100 MHz), the unit Figure 13 reports.
 *
 * Calibration targets from section 7 of the paper:
 *   - "round-trip latency of approximately 100 FPGA cycles" for a
 *     small synchronizer transfer,
 *   - "stream up to 400 megabytes per second" (= 4 bytes/cycle at
 *     100 MHz) for large bursts,
 *   - PPC440 at 400 MHz -> 4 CPU cycles per FPGA cycle.
 * bench/comm_microbench regenerates both numbers.
 */
#ifndef BCL_PLATFORM_BUS_HPP
#define BCL_PLATFORM_BUS_HPP

#include <cstdint>

namespace bcl {

/** Timing parameters of one physical link direction. */
struct BusParams
{
    /** One-way propagation latency of a message (cycles). */
    std::uint64_t requestLatency = 34;

    /** Per-message arbitration + descriptor overhead (cycles). */
    std::uint64_t perMessageOverhead = 14;

    /** Cycles per 32-bit beat once streaming. */
    std::uint64_t perWordCycles = 1;

    /**
     * Largest single burst (header word included); longer messages
     * are split and pay perMessageOverhead once per burst. 1024
     * words (one HDMA descriptor ring page) is what the §7
     * calibration needs: a 512-word streaming message then moves at
     * ~388 MB/s, the paper's "up to 400 megabytes per second" —
     * splitting at 256 caps streaming at ~349 MB/s. These defaults
     * ARE the ML507 calibration — the single source of truth.
     * PlatformSpec::ml507() exposes them as the `ml507` preset (a
     * duplicate factory once silently disagreed, 256 vs 1024; a unit
     * test pins the preset/default agreement and the occupancyCycles
     * split boundary).
     */
    int maxBurstWords = 1024;

    bool operator==(const BusParams &) const = default;

    /** Link occupancy of a message of @p words payload words
     *  (+1 header word), including per-burst overheads. */
    std::uint64_t occupancyCycles(int words) const;

    /** End-to-end latency of a message: occupancy + propagation. */
    std::uint64_t messageLatency(int words) const
    {
        return occupancyCycles(words) + requestLatency;
    }

    /** Modeled 1-word ping-pong round trip (cycles). */
    std::uint64_t roundTripCycles() const
    {
        return 2 * messageLatency(1);
    }
};

/**
 * Serializes transfers over one link direction: at most one message
 * occupies the wire at a time (virtual channels queue *before* the
 * arbiter, so a blocked channel never blocks others - no head-of-line
 * blocking, section 4.4).
 *
 * Not thread-safe: a CoSim touches its arbiters from the thread that
 * runs it, and the serving pool hands a whole session between
 * workers through its own synchronization.
 */
class LinkArbiter
{
  public:
    /**
     * Acquire the link at or after @p ready for @p occupancy cycles.
     * @return actual start time granted.
     */
    std::uint64_t
    acquire(std::uint64_t ready, std::uint64_t occupancy)
    {
        std::uint64_t start = ready > freeAt ? ready : freeAt;
        freeAt = start + occupancy;
        busyCycles += occupancy;
        grants++;
        return start;
    }

    /** Earliest time a new transfer could start. */
    std::uint64_t freeTime() const { return freeAt; }

    /** Total cycles the wire was occupied. */
    std::uint64_t busy() const { return busyCycles; }

    /** Number of messages granted. */
    std::uint64_t grantCount() const { return grants; }

  private:
    std::uint64_t freeAt = 0;
    std::uint64_t busyCycles = 0;
    std::uint64_t grants = 0;
};

} // namespace bcl

#endif // BCL_PLATFORM_BUS_HPP
