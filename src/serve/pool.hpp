/**
 * @file
 * Fixed worker pool with frame-batched scheduling, plus the
 * SessionManager that ties the serving layer together (shared
 * CompileCache + pool + session factory).
 *
 * Scheduling: a ready queue of sessions. Each tick, a worker claims
 * the head session, advances it one frame quantum
 * (Session::advance), and requeues it at the tail unless it
 * finished — round-robin across every live session, so thousands of
 * streams make interleaved progress on a handful of workers and no
 * stream starves. The queue mutex is the ownership handoff point:
 * Session::advance released compiled-instance thread affinity before
 * the session went back on the queue, so a session may migrate
 * between workers on every quantum.
 *
 * Error handling: a worker exception marks the owning session
 * finished, and the first exception is rethrown from drain() after
 * every other session has settled — one poisoned stream cannot wedge
 * the pool.
 */
#ifndef BCL_SERVE_POOL_HPP
#define BCL_SERVE_POOL_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "platform/platform_spec.hpp"
#include "serve/compile_cache.hpp"
#include "serve/session.hpp"

namespace bcl {
namespace serve {

/** Pool observability counters. */
struct PoolStats
{
    std::uint64_t quanta = 0;    ///< frame quanta executed
    std::uint64_t completed = 0; ///< sessions run to their target
    std::uint64_t failed = 0;    ///< sessions ended by an exception
};

/** Fixed worker pool over Session quanta; see file comment. */
class WorkerPool
{
  public:
    /** @param workers Thread count; <1 clamps to 1. */
    explicit WorkerPool(int workers);

    /** Joins workers; sessions still queued are abandoned (drain()
     *  first for an orderly finish). */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    int workers() const
    {
        return static_cast<int>(threads_.size());
    }

    /** Enqueue a session (ready to run its next quantum). */
    void submit(std::shared_ptr<Session> session);

    /**
     * Block until every submitted session has finished, then rethrow
     * the first worker exception, if any. The return is a
     * synchronization point: all session results are visible to the
     * caller.
     */
    void drain();

    PoolStats stats() const;

    /**
     * Publish stats() into @p reg under the stable names
     * `serve.pool.quanta/completed/failed` (counters) and
     * `serve.pool.workers` (gauge). The one place the PoolStats
     * field list meets the registry.
     */
    void snapshotMetrics(obs::MetricsRegistry &reg) const;

  private:
    void workerLoop(int index);

    mutable std::mutex mu_;
    std::condition_variable cv_;      ///< work available / stopping
    std::condition_variable idleCv_;  ///< inflight drained
    std::deque<std::shared_ptr<Session>> ready_;
    std::uint64_t inflight_ = 0;  ///< submitted, not yet finished
    bool stop_ = false;
    PoolStats stats_;
    std::exception_ptr firstError_;
    /** Ready-to-done frame latency of every session (ms). */
    obs::Histogram &frameMs_;
    std::vector<std::thread> threads_;
};

/**
 * The serving front door: owns the artifact cache and the worker
 * pool, stamps out sessions whose Compiled software domains share
 * one .so through the cache, and drives them to completion.
 */
struct SessionManagerOptions
{
    /** Pool width; 0 = hardware_concurrency. */
    int workers = 0;

    /** Compile-cache configuration (disk layer etc.). */
    CompileCacheOptions cache;

    /**
     * Platform model for every session this manager creates: a
     * preset name ("ml507", "pcie") or a configs/*.config path,
     * resolved ONCE at manager construction (a malformed config
     * fails fast, not per session) and stamped into each created
     * session's CosimConfig::platform. Empty = leave per-session
     * platforms alone.
     */
    std::string platform;
};

class SessionManager
{
  public:
    using Options = SessionManagerOptions;

    explicit SessionManager(Options opts = {});

    SessionManager(const SessionManager &) = delete;
    SessionManager &operator=(const SessionManager &) = delete;

    CompileCache &cache() { return cache_; }
    WorkerPool &pool() { return pool_; }

    /**
     * Create a session over @p parts. @p cfg is taken as-is except
     * that when swBackend == Compiled with no compileProvider set, the
     * manager's shared cache is wired in — every session of the same
     * generated source then shares one CompiledArtifact.
     */
    std::shared_ptr<Session> createSession(
        const PartitionResult &parts, CosimConfig cfg,
        StreamSpec spec);

    /** Create and immediately submit to the pool. */
    std::shared_ptr<Session> startSession(
        const PartitionResult &parts, CosimConfig cfg,
        StreamSpec spec);

    /** Submit an existing session. */
    void start(std::shared_ptr<Session> session)
    {
        pool_.submit(std::move(session));
    }

    /** WorkerPool::drain — wait for all sessions, rethrow first
     *  error. */
    void drain() { pool_.drain(); }

  private:
    int nextId_ = 0;
    std::mutex idMu_;
    /** Resolved Options::platform; nullopt = per-session choice. */
    std::optional<PlatformSpec> platform_;
    CompileCache cache_;
    WorkerPool pool_;
};

} // namespace serve
} // namespace bcl

#endif // BCL_SERVE_POOL_HPP
