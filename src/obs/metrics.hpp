/**
 * @file
 * Typed metrics registry: named counters, gauges and fixed-bucket
 * histograms behind one process-global enable flag. This is the
 * "measurement-driven late decision" substrate of the paper made
 * concrete: every subsystem keeps its cheap ad-hoc stats struct as
 * the internal source of truth (ChannelStats, PoolStats,
 * CompileCacheStats) and exposes ONE snapshot function that publishes
 * it under stable metric names, so benches, BENCH_runtime.json and
 * the partition autotuner all read the same catalog instead of
 * duplicating field lists.
 *
 * Metric name catalog (stable; see docs/ARCHITECTURE.md
 * "Observability" for the full list):
 *
 *   cosim.fpga_cycles                    gauge
 *   cosim.sw_work                        gauge
 *   cosim.domain.<dom>.cycles            gauge
 *   cosim.channel.<chan>.messages        counter
 *   cosim.channel.<chan>.payload_words   counter
 *   cosim.channel.<chan>.stall_cycles    counter
 *   cosim.channel.<chan>.stall_events    counter
 *   cosim.channel.occupancy              histogram (rx queue depth)
 *   gencc.compiles                       counter
 *   gencc.units                          counter (units compiled)
 *   gencc.compile_ms                     histogram (artifact wall)
 *   serve.session.frame_ms               histogram (ready-to-done)
 *   serve.pool.workers                   gauge
 *   serve.pool.quanta                    counter
 *   serve.pool.completed                 counter
 *   serve.pool.failed                    counter
 *   serve.cache.compiles                 counter
 *   serve.cache.hits                     counter
 *   serve.cache.disk_hits                counter
 *   serve.cache.corrupt_fallbacks        counter
 *   serve.cache.hit_ratio                gauge
 *
 * Cost model: every record site is a single relaxed atomic load of
 * the registry's enable flag plus a branch when disabled (the
 * overhead guard in tests/test_obs.cpp pins this), and a handful of
 * relaxed atomic RMWs when enabled. Instrument references are stable
 * for the registry's lifetime — hot paths look a metric up once and
 * cache the pointer. Recording is thread-safe and lock-free;
 * lookup/registration takes the registry mutex (do it at setup, not
 * per event). reset() zeroes values without invalidating references.
 *
 * Counters are monotone within a run but also expose set(): snapshot
 * functions publish absolute values from their source-of-truth
 * structs, which are themselves monotone.
 */
#ifndef BCL_OBS_METRICS_HPP
#define BCL_OBS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bcl {
namespace obs {

/** Monotone 64-bit event count. */
class Counter
{
  public:
    explicit Counter(const std::atomic<bool> &gate) : gate_(gate) {}

    void
    add(std::uint64_t delta = 1)
    {
        if (!gate_.load(std::memory_order_relaxed))
            return;
        v_.fetch_add(delta, std::memory_order_relaxed);
    }

    /** Snapshot publication: overwrite with an absolute value read
     *  from the owning subsystem's stats struct. */
    void
    set(std::uint64_t value)
    {
        if (!gate_.load(std::memory_order_relaxed))
            return;
        v_.store(value, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    const std::atomic<bool> &gate_;
    std::atomic<std::uint64_t> v_{0};
};

/** Last-written point-in-time value (double so ratios fit). */
class Gauge
{
  public:
    explicit Gauge(const std::atomic<bool> &gate) : gate_(gate) {}

    void
    set(double value)
    {
        if (!gate_.load(std::memory_order_relaxed))
            return;
        v_.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    const std::atomic<bool> &gate_;
    std::atomic<double> v_{0};
};

/**
 * Fixed-bucket histogram: @p bounds are inclusive upper edges in
 * ascending order, plus an implicit overflow bucket. Percentiles are
 * estimated by linear interpolation inside the bucket holding the
 * rank (the overflow bucket reports its lower edge) — the usual
 * fixed-bucket tradeoff: cheap concurrent recording, bounded error
 * set by the bucket spacing.
 */
class Histogram
{
  public:
    Histogram(const std::atomic<bool> &gate,
              std::vector<double> bounds);

    void
    observe(double v)
    {
        if (!gate_.load(std::memory_order_relaxed))
            return;
        record(v);
    }

    std::uint64_t count() const;
    double sum() const;

    /** Estimated value at quantile @p q in [0, 1]. */
    double percentile(double q) const;

    const std::vector<double> &bounds() const { return bounds_; }

    /** Count in bucket @p i (i == bounds().size() is overflow). */
    std::uint64_t bucketCount(size_t i) const;

    void reset();

    /** @p n edges first, first*factor, first*factor^2, ... */
    static std::vector<double> exponentialBounds(double first,
                                                 double factor,
                                                 int n);

  private:
    void record(double v);

    const std::atomic<bool> &gate_;
    std::vector<double> bounds_;
    /** bounds_.size() + 1 slots; last = overflow. */
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0};
};

/** Named-instrument registry; see file comment. */
class MetricsRegistry
{
  public:
    /** The process-wide registry every subsystem records into. */
    static MetricsRegistry &instance();

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Master switch: disabled (the default), every record site is
     *  one relaxed load + branch. */
    void
    enable(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Instrument accessors: create on first use, return the same
     *  object ever after (references are stable — cache them in hot
     *  paths). Requesting an existing name as a different type
     *  throws. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** @p bounds used only on first creation; empty = default
     *  latency-style exponential buckets (1 us .. ~17 s). */
    Histogram &histogram(const std::string &name,
                         std::vector<double> bounds = {});

    /** Zero every instrument (registrations and references stay
     *  valid). */
    void reset();

    /**
     * One JSON object keyed by metric name:
     *   counters   {"type":"counter","value":N}
     *   gauges     {"type":"gauge","value":X}
     *   histograms {"type":"histogram","count":N,"sum":S,
     *               "p50":..,"p90":..,"p99":..,
     *               "buckets":[{"le":B,"count":N},...],
     *               "overflow":N}
     * This is the machine-readable snapshot benches embed in their
     * --json output and bench_report.py folds into BENCH_runtime.json.
     */
    std::string toJson() const;

  private:
    struct Entry
    {
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;
};

/** Shorthand for MetricsRegistry::instance(). */
MetricsRegistry &metrics();

} // namespace obs
} // namespace bcl

#endif // BCL_OBS_METRICS_HPP
