/**
 * @file
 * Timeline tracing in the Chrome trace_event JSON format (loadable
 * in Perfetto / chrome://tracing): spans for per-partition cosim
 * slices, flow arrows for channel pickup->deliver message travel,
 * instants for stalls and compile-cache outcomes, and
 * serving-session lifecycle markers.
 *
 * Recording is single-producer per thread: each recording thread
 * owns a chunked event buffer it alone appends to, publishing each
 * event with one release store of the chunk's used-count; the
 * flush side walks all buffers with acquire loads. No lock is ever
 * taken on the event path — only chunk rollover (every
 * kChunkEvents events) and first-touch thread registration lock a
 * mutex. Disabled (the default), every event site is a single
 * relaxed atomic load and branch; tests/test_obs.cpp pins that
 * overhead, and the serving/partition determinism matrices pin that
 * tracing cannot perturb functional results (it only observes).
 *
 * Event names are copied inline (bounded) at record time, so callers
 * may pass transient strings (domain/channel/session names) without
 * lifetime coupling; categories and argument keys must be
 * static-lifetime literals.
 *
 * flush/write may run concurrently with recording (they snapshot
 * what has been published); clear() requires recording threads to be
 * quiescent — benches call it between sweep points after the pool
 * drained.
 */
#ifndef BCL_OBS_TRACE_HPP
#define BCL_OBS_TRACE_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace bcl {
namespace obs {

/** One recorded event (Chrome trace_event phases). */
struct TraceEvent
{
    static constexpr size_t kNameBytes = 48;

    char name[kNameBytes];  ///< copied at record time
    const char *cat;        ///< static literal
    const char *argName;    ///< static literal or nullptr
    std::int64_t argValue;
    std::uint64_t ts;  ///< ns since recorder epoch
    std::uint64_t id;  ///< flow binding id ('s'/'f' phases)
    char phase;        ///< 'B','E','i','s','f'
};

class TraceRecorder
{
  public:
    /** The process-wide recorder all subsystems emit into. */
    static TraceRecorder &instance();

    TraceRecorder();
    TraceRecorder(const TraceRecorder &) = delete;
    TraceRecorder &operator=(const TraceRecorder &) = delete;

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

    // -- event sites (no-ops while disabled) --------------------------

    /** Open a span on the calling thread ('B'). */
    void begin(const char *name, const char *cat,
               const char *arg_name = nullptr,
               std::int64_t arg_value = 0);

    /** Close the innermost open span ('E'). */
    void end(const char *name, const char *cat);

    /** Zero-duration marker ('i', thread scope). */
    void instant(const char *name, const char *cat,
                 const char *arg_name = nullptr,
                 std::int64_t arg_value = 0);

    /** Flow arrow start ('s'): ties to the flowEnd with the same
     *  @p id (ids must be process-unique; see nextFlowBase). */
    void flowStart(const char *name, const char *cat,
                   std::uint64_t id);

    /** Flow arrow end ('f', bp=e). */
    void flowEnd(const char *name, const char *cat,
                 std::uint64_t id);

    /** Label the calling thread in the trace viewer. */
    void setThreadName(const std::string &name);

    /** Reserve 2^32 flow ids: returns a unique base; the caller owns
     *  ids base..base+2^32-1 (channel transports take one base each
     *  and add their message sequence number). */
    static std::uint64_t nextFlowBase();

    // -- output -------------------------------------------------------

    /** Snapshot every published event as one Chrome-trace JSON
     *  object ({"traceEvents": [...]}). */
    std::string toJson() const;
    void writeJson(std::ostream &out) const;
    void writeJson(const std::string &path) const;

    /** Drop all recorded events (recording threads must be
     *  quiescent). Thread registrations and names survive. */
    void clear();

    /** Published events across all threads (flush-side view). */
    std::uint64_t eventCount() const;

  private:
    /** Fixed chunk so the append path never reallocates under the
     *  reader: slots are written, then used is release-published. */
    struct Chunk
    {
        static constexpr size_t kChunkEvents = 4096;
        std::vector<TraceEvent> slots;
        std::atomic<size_t> used{0};

        Chunk() : slots(kChunkEvents) {}
    };

    struct ThreadBuffer
    {
        int tid = 0;
        std::string name;
        /** Guards chunk-list shape and name; never held while
         *  appending events. */
        mutable std::mutex mu;
        std::vector<std::unique_ptr<Chunk>> chunks;
        Chunk *cur = nullptr;  ///< writer-thread-only shortcut
    };

    ThreadBuffer &threadBuffer();
    TraceEvent *slot(ThreadBuffer &buf);
    void emit(char phase, const char *name, const char *cat,
              const char *arg_name, std::int64_t arg_value,
              std::uint64_t id);

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;  ///< registration + flush
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
    int nextTid_ = 1;
};

/** Shorthand for TraceRecorder::instance(). */
TraceRecorder &trace();

/** RAII span: begin at construction, end at destruction (inert while
 *  the recorder is disabled). */
class TraceSpan
{
  public:
    TraceSpan(const char *name, const char *cat,
              const char *arg_name = nullptr,
              std::int64_t arg_value = 0)
    {
        TraceRecorder &r = trace();
        if (!r.enabled())
            return;
        open_ = true;
        name_ = name;
        cat_ = cat;
        r.begin(name, cat, arg_name, arg_value);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    ~TraceSpan()
    {
        if (open_)
            trace().end(name_, cat_);
    }

  private:
    bool open_ = false;
    const char *name_ = nullptr;
    const char *cat_ = nullptr;
};

} // namespace obs
} // namespace bcl

#endif // BCL_OBS_TRACE_HPP
