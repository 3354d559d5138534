/**
 * @file
 * Multi-session serving layer: one Session per independent cosim
 * stream. The paper's generated HW/SW interface makes the runtime
 * artifact (one compiled .so per partition) cheap to instantiate, so
 * the system can serve thousands of concurrent streams by giving
 * each its own Store and its own CompiledPartition *instance* while
 * sharing the compiled artifact through the CompileCache — the
 * share-the-artifact / isolate-the-instance split.
 *
 * A Session wraps one CoSim (its loop is sequential: serving
 * parallelism is ACROSS sessions, not within one) plus a stream
 * spec: an input driver, a monotone progress counter (e.g. "PCM
 * frames decoded") and a target. advance() runs the cosim until
 * the counter gains at least one unit — one frame quantum; a deep
 * pipeline may drain several frames in one step — then releases
 * compiled-partition thread ownership so the next pool worker can
 * claim the session. Sessions share no mutable state with each
 * other, so any interleaving of quanta across any worker count
 * produces outputs byte-identical to the session's solo serial run;
 * the LIBDN latency-insensitivity argument (§4.4) is again the
 * correctness oracle, and tests/test_serving.cpp pins it.
 *
 * Threading contract: a Session is owned by at most one thread at a
 * time (the pool's ready queue enforces this and provides the
 * happens-before edge between consecutive owners). Result accessors
 * (cosim(), frameLatenciesMs()) are safe once the session is
 * finished and the pool has drained.
 */
#ifndef BCL_SERVE_SESSION_HPP
#define BCL_SERVE_SESSION_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "platform/cosim.hpp"

namespace bcl {
namespace serve {

/** What a session streams: input feed, progress metric, end goal. */
struct StreamSpec
{
    /** Software domain the driver attaches to. */
    std::string swDomain = "SW";

    /** Host input source (same contract as CoSim::setDriver). */
    SwDriver driver;

    /**
     * Monotone progress counter evaluated between quanta (e.g. the
     * AudioDev queue size). One unit = one frame quantum.
     */
    std::function<std::uint64_t(CoSim &)> progress;

    /** Session is finished when progress reaches this. */
    std::uint64_t target = 0;
};

/** One independent cosim stream; see file comment. */
class Session
{
  public:
    /**
     * @param id Caller-chosen identifier (stable across the pool).
     * @param parts Shared partition result — immutable, may back any
     *   number of concurrent sessions.
     * @param cfg Cosim parameters; threads is forced to 1, and
     *   compileProvider should point at the shared CompileCache when
     *   swBackend == Compiled (SessionManager wires this).
     * @param spec The stream to serve.
     */
    Session(int id, const PartitionResult &parts, CosimConfig cfg,
            StreamSpec spec);

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    int id() const { return id_; }

    /**
     * Advance one frame quantum: run the cosim until the progress
     * counter gains at least one unit (or the target is reached),
     * then hand compiled-partition ownership back. @return false
     * when the session is finished (target reached).
     */
    bool advance();

    bool finished() const { return finished_; }

    /** Progress units completed so far. */
    std::uint64_t progress() { return spec_.progress(*cosim_); }

    /** The underlying cosim (results live in its stores). Safe to
     *  read once the session is finished / the pool drained. */
    CoSim &cosim() { return *cosim_; }

    // -- frame-latency accounting (filled in by the pool) ------------

    /** Stamp "became ready" (submit / requeue time). */
    void markReady(std::chrono::steady_clock::time_point t)
    {
        readyAt_ = t;
    }

    std::chrono::steady_clock::time_point readyAt() const
    {
        return readyAt_;
    }

    /** Record one frame's ready-to-done latency (queue wait plus
     *  service — the number a client of the stream would feel). */
    void recordFrameLatencyMs(double ms)
    {
        frameLatenciesMs_.push_back(ms);
    }

    const std::vector<double> &frameLatenciesMs() const
    {
        return frameLatenciesMs_;
    }

  private:
    int id_;
    StreamSpec spec_;
    std::unique_ptr<CoSim> cosim_;
    bool finished_ = false;
    std::chrono::steady_clock::time_point readyAt_{};
    std::vector<double> frameLatenciesMs_;
};

} // namespace serve
} // namespace bcl

#endif // BCL_SERVE_SESSION_HPP
