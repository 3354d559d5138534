#include "serve/pool.hpp"

#include <chrono>

#include "common/logging.hpp"
#include "obs/trace.hpp"

namespace bcl {
namespace serve {

WorkerPool::WorkerPool(int workers)
    : frameMs_(obs::metrics().histogram(
          "serve.session.frame_ms",
          obs::Histogram::exponentialBounds(0.001, 2.0, 26)))
{
    if (workers == 0) {
        unsigned hc = std::thread::hardware_concurrency();
        workers = static_cast<int>(hc > 0 ? hc : 1);
    }
    if (workers < 1)
        workers = 1;
    threads_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; i++)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
WorkerPool::submit(std::shared_ptr<Session> session)
{
    if (!session)
        panic("serve: submit(nullptr)");
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_)
            panic("serve: submit on a stopping pool");
        session->markReady(std::chrono::steady_clock::now());
        obs::trace().instant("session.queued", "serve", "session",
                             session->id());
        if (session->finished()) {
            // Zero-target session: nothing to run, count it settled.
            stats_.completed++;
            return;
        }
        ready_.push_back(std::move(session));
        inflight_++;
    }
    cv_.notify_one();
}

void
WorkerPool::workerLoop(int index)
{
    if (obs::trace().enabled()) {
        obs::trace().setThreadName("serve.worker " +
                                   std::to_string(index));
    }
    for (;;) {
        std::shared_ptr<Session> session;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [&] { return stop_ || !ready_.empty(); });
            if (stop_)
                return;  // queued sessions are abandoned (see dtor)
            session = std::move(ready_.front());
            ready_.pop_front();
        }

        bool finished = true;
        std::exception_ptr error;
        {
            // The claimed->advanced slice of the session lifecycle:
            // which worker served which session, for how long.
            obs::TraceSpan span("session.advance", "serve", "session",
                                session->id());
            try {
                finished = !session->advance();
            } catch (...) {
                error = std::current_exception();
            }
        }
        // Ready-to-done latency: queue wait + service, the delay a
        // client of this stream would observe for the frame.
        auto t1 = std::chrono::steady_clock::now();
        const double frame_ms =
            std::chrono::duration<double, std::milli>(
                t1 - session->readyAt())
                .count();
        session->recordFrameLatencyMs(frame_ms);
        frameMs_.observe(frame_ms);
        if (finished && !error) {
            obs::trace().instant("session.done", "serve", "session",
                                 session->id());
        }

        {
            std::lock_guard<std::mutex> lock(mu_);
            stats_.quanta++;
            if (error) {
                if (!firstError_)
                    firstError_ = error;
                stats_.failed++;
                inflight_--;
            } else if (finished) {
                stats_.completed++;
                inflight_--;
            } else {
                session->markReady(t1);
                ready_.push_back(std::move(session));
                cv_.notify_one();
                continue;
            }
            if (inflight_ == 0)
                idleCv_.notify_all();
        }
    }
}

void
WorkerPool::drain()
{
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(mu_);
        idleCv_.wait(lock, [&] { return inflight_ == 0; });
        err = firstError_;
        firstError_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

PoolStats
WorkerPool::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
WorkerPool::snapshotMetrics(obs::MetricsRegistry &reg) const
{
    const PoolStats s = stats();
    reg.counter("serve.pool.quanta").set(s.quanta);
    reg.counter("serve.pool.completed").set(s.completed);
    reg.counter("serve.pool.failed").set(s.failed);
    reg.gauge("serve.pool.workers")
        .set(static_cast<double>(workers()));
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

SessionManager::SessionManager(Options opts)
    : cache_(std::move(opts.cache)), pool_(opts.workers)
{
    // Resolve the fleet-wide platform once: a bad preset name or
    // malformed config file fails the manager's construction, not
    // the thousandth createSession.
    if (!opts.platform.empty())
        platform_ = resolvePlatform(opts.platform);
}

std::shared_ptr<Session>
SessionManager::createSession(const PartitionResult &parts,
                              CosimConfig cfg, StreamSpec spec)
{
    if (platform_)
        cfg.platform = *platform_;
    if (cfg.swBackend == SwBackend::Compiled && !cfg.compileProvider) {
        cfg.compileProvider = [this](const ElabProgram &prog,
                                     const GenccOptions &opts) {
            return cache_.get(prog, opts);
        };
    }
    int id;
    {
        std::lock_guard<std::mutex> lock(idMu_);
        id = nextId_++;
    }
    return std::make_shared<Session>(id, parts, std::move(cfg),
                                     std::move(spec));
}

std::shared_ptr<Session>
SessionManager::startSession(const PartitionResult &parts,
                             CosimConfig cfg, StreamSpec spec)
{
    auto session =
        createSession(parts, std::move(cfg), std::move(spec));
    pool_.submit(session);
    return session;
}

} // namespace serve
} // namespace bcl
