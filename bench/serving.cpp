/**
 * @file
 * Serving-layer scaling sweep: N concurrent Vorbis streams (default
 * N in {100, 1000, 10000}) served from a fixed worker pool, every
 * stream its own Session (own Store, own CompiledPartition instance)
 * over ONE shared partitioning and ONE compiled artifact from the
 * CompileCache. Reports streams/sec and p50/p99 frame latency per
 * point, and verifies a sample of streams byte-for-byte against
 * their solo serial runs (runWorkload with the same seed) — the
 * LIBDN §4.4 argument, scaled out: concurrency must be functionally
 * invisible per stream.
 *
 * Latency is ready-to-done per frame quantum (queue wait + service),
 * i.e. what a client of the stream would feel under load; on an
 * oversubscribed pool it grows with the number of live sessions
 * while streams/sec holds — that shape IS the serving tradeoff.
 *
 * Flags: the shared --frames --platform --hw-backend --transport
 * --json --trace (bench/bench_main.hpp), plus
 *   --sessions N,N,...  concurrent-session counts (100,1000,10000)
 *   --workers W         pool width (default hardware_concurrency)
 *   --verify M          streams spot-checked per point (default 16)
 *   --backend compiled|interpreted   software runtime
 *   --partition F|A|B|C|D|E|split    Vorbis partition served
 * --transport moves each session's hardware domains into forked
 * partition children (shm rings or framed loopback TCP) — the
 * distributed serving shape, one child per hardware domain per live
 * session. The default partition F is full-software (no hardware
 * domains), so a remote transport without an explicit --partition
 * switches to B; keep --sessions small (children are real
 * processes).
 * --backend picks the software runtime; --hw-backend independently
 * picks the clock for hardware domains (relevant with --partition
 * other than F), with the clock-edge artifacts shared session-wide
 * through the manager's CompileCache.
 * --json emits the sweep for scripts/bench_report.py to fold into
 * BENCH_runtime.json (the "serving" section), now including a
 * "metrics" object (the registry snapshot: pool/cache/sample-session
 * metrics). --trace writes a Chrome trace_event timeline (load in
 * Perfetto or chrome://tracing) of the LAST sweep point: session
 * lifecycle instants, per-worker session.advance slices, and — when
 * the partition has channels — pickup->deliver flow arrows. Because
 * the default partition F is full-software (zero channels), --trace
 * without an explicit --partition switches to partition B so the
 * timeline actually shows channel traffic.
 *
 * Frame p50/p99 now come from the registry's serve.session.frame_ms
 * histogram (reset per point) instead of hand-rolled percentile
 * math; the per-session latency vectors remain for the tests.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_main.hpp"
#include "common/stats.hpp"
#include "common/strutil.hpp"
#include "obs/trace.hpp"
#include "serve/pool.hpp"

using namespace bcl;
using namespace bcl::bench;
using namespace bcl::serve;

namespace {

struct Point
{
    int sessions = 0;
    double wallMs = 0;
    double streamsPerSec = 0;
    double framesPerSec = 0;
    double frameP50Ms = 0;
    double frameP99Ms = 0;
    int verified = 0;
    bool outputsMatch = true;
};

} // namespace

int
main(int argc, char **argv)
{
    BenchMain bench("serving", kFrames | kPlatform | kHwBackend |
                                   kTransport | kJson | kTrace);
    bench.size.frames = 4;
    std::string sessions_arg = "100,1000,10000";
    int workers = 0;  // hardware_concurrency
    int verify = 16;
    std::string backend = "compiled";
    std::string partition;
    bench.option("--sessions", &sessions_arg, "N,N,...");
    bench.option("--workers", &workers);
    bench.option("--verify", &verify);
    bench.option("--backend", &backend, "compiled|interpreted");
    bench.option("--partition", &partition, "F|A|B|C|D|E|split");
    bench.parse(argc, argv);
    std::vector<int> sweeps;
    for (const std::string &n : splitString(sessions_arg, ','))
        sweeps.push_back(bench.number("--sessions", n));
    const int frames = bench.size.frames;

    // The frame-latency percentiles come from the registry histogram,
    // so metrics are always on here.
    obs::metrics().enable(true);
    if (backend != "interpreted")
        backend = "compiled";
    compilerFallback(backend, "software");
    const SwBackend sw_backend = backend == "compiled"
                                     ? SwBackend::Compiled
                                     : SwBackend::Interpreted;

    // F (full software) is the serving shape; --trace (and a remote
    // transport, which needs hardware domains to move out of
    // process) default to B so there is channel traffic to show.
    if (partition.empty())
        partition = (bench.tracePath.empty() &&
                     bench.transportKind == TransportKind::InThread)
                        ? "F"
                        : "B";
    const NamedWorkload &served = findWorkload("vorbis_" + partition);
    const Workload &w = *served.workload;
    const PartitionResult parts = partitionWorkload(
        w, served.partition->domains, bench.size, w.defaultSeed);

    std::printf("== Serving-layer sweep: concurrent Vorbis streams "
                "==\n");
    std::printf("partition: %s; backend: %s; hw backend: %s; "
                "transport: %s; frames/stream: %d; workers: %d "
                "(hc=%u)\n\n",
                partition.c_str(), backend.c_str(),
                bench.hwBackend.c_str(), bench.transport.c_str(),
                frames,
                workers ? workers
                        : static_cast<int>(
                              std::thread::hardware_concurrency()),
                std::thread::hardware_concurrency());

    std::vector<Point> points;
    CompileCacheStats cacheStats;
    int effective_workers = 0;
    bool all_match = true;

    for (int n : sweeps) {
        // Keep only the last point's timeline: all pool/session
        // threads from the previous point are joined here, so the
        // recorder is quiescent and clear() is safe.
        if (!bench.tracePath.empty())
            obs::trace().clear();

        SessionManagerOptions mopts;
        mopts.workers = workers;
        mopts.platform = bench.platformArg;
        SessionManager mgr(mopts);
        effective_workers = mgr.pool().workers();
        obs::Histogram &frame_hist =
            obs::metrics().histogram("serve.session.frame_ms");
        frame_hist.reset();

        // Only matters with a partition other than F; the compile
        // routes through the manager's CompileCache so every session
        // shares one clock-edge artifact per hardware domain.
        CosimConfig cfg = bench.config();
        cfg.swBackend = sw_backend;
        auto provider = [&mgr](const ElabProgram &p,
                               const GenccOptions &o) {
            return mgr.cache().get(p, o);
        };
        if (bench.hwBackend == "compiled")
            cfg.compileProvider = provider;

        // Resolve the shared artifact once, outside the timed
        // region: the one-time compile is the cost the serving layer
        // exists to amortize, and at n=100 it would otherwise
        // dominate the point. Passing it as cfg.swArtifact makes
        // per-session instantiation pure bcl_gen_create instead of
        // re-running codegen for the cache key on every lookup.
        auto t_build0 = std::chrono::steady_clock::now();
        if (sw_backend == SwBackend::Compiled) {
            GenccOptions gopts;
            gopts.mode = cfg.swGenMode;
            cfg.swArtifact =
                mgr.cache().get(parts.part("SW").prog, gopts);
        }
        auto t_build1 = std::chrono::steady_clock::now();

        std::vector<std::shared_ptr<Session>> sessions;
        sessions.reserve(static_cast<size_t>(n));
        for (int i = 0; i < n; i++) {
            sessions.push_back(mgr.createSession(
                parts, cfg,
                w.stream(parts, bench.size,
                         1000 + static_cast<std::uint64_t>(i))));
        }
        auto t_build2 = std::chrono::steady_clock::now();

        auto t0 = std::chrono::steady_clock::now();
        for (auto &s : sessions)
            mgr.start(s);
        mgr.drain();

        Point pt;
        pt.sessions = n;
        pt.wallMs = msSince(t0);
        pt.streamsPerSec =
            static_cast<double>(n) / (pt.wallMs / 1000.0);
        pt.framesPerSec = pt.streamsPerSec * frames;
        pt.frameP50Ms = frame_hist.percentile(0.50);
        pt.frameP99Ms = frame_hist.percentile(0.99);

        // Spot-verify against solo serial runs (independent oracle:
        // runWorkload builds its own program and cosim).
        int m = std::min(verify, n);
        pt.verified = m;
        for (int i = 0; i < m; i++) {
            // Sample across the range, always including 0 and n-1.
            int idx = m > 1
                          ? static_cast<int>(
                                static_cast<long long>(i) * (n - 1) /
                                (m - 1))
                          : 0;
            auto &s = sessions[static_cast<size_t>(idx)];
            CosimConfig scfg;
            scfg.swBackend = sw_backend;
            if (bench.hwBackend == "compiled")
                scfg.hwBackend = HwBackend::Compiled;
            // The oracle builds its own program and cosim and runs
            // serially; routing its compile through the same cache
            // only shares the binary (its independently generated
            // source hashes to the same key — itself a property worth
            // exercising) and keeps verification O(ms) per stream.
            scfg.compileProvider = provider;
            RunResult ref =
                runWorkload(served.name, bench.size, scfg,
                            1000 + static_cast<std::uint64_t>(idx));
            if (w.output(s->cosim(), parts) != ref.output)
                pt.outputsMatch = false;
        }
        all_match &= pt.outputsMatch;

        double build0_ms = std::chrono::duration<double, std::milli>(
                               t_build1 - t_build0)
                               .count();
        double buildN_ms = std::chrono::duration<double, std::milli>(
                               t_build2 - t_build1)
                               .count();
        std::printf("n=%d: artifact resolve %.1f ms (compile or "
                    "cache), %d sessions in %.1f ms (%.3f ms each)\n",
                    n, build0_ms, n, buildN_ms,
                    n > 0 ? buildN_ms / n : 0.0);
        points.push_back(pt);

        cacheStats = mgr.cache().stats();
        // Publish this point's pool/cache/sample-session state under
        // the stable metric names; the JSON below embeds the registry
        // as it stands after the final point.
        mgr.pool().snapshotMetrics(obs::metrics());
        mgr.cache().snapshotMetrics(obs::metrics());
        if (!sessions.empty())
            sessions.front()->cosim().snapshotMetrics(obs::metrics());
    }

    TextTable table;
    table.header({"sessions", "wall ms", "streams/s", "frames/s",
                  "p50 ms", "p99 ms", "verified", "outputs"});
    Json json_points = Json::array();
    for (const Point &pt : points) {
        table.row({std::to_string(pt.sessions),
                   fixedDecimal(pt.wallMs, 1),
                   fixedDecimal(pt.streamsPerSec, 1),
                   fixedDecimal(pt.framesPerSec, 1),
                   fixedDecimal(pt.frameP50Ms, 2),
                   fixedDecimal(pt.frameP99Ms, 2),
                   std::to_string(pt.verified),
                   pt.outputsMatch ? "match" : "MISMATCH"});
        json_points.push(Json::object()
                             .set("sessions", pt.sessions)
                             .set("wall_ms", pt.wallMs)
                             .set("streams_per_sec", pt.streamsPerSec)
                             .set("frames_per_sec", pt.framesPerSec)
                             .set("frame_ms_p50", pt.frameP50Ms)
                             .set("frame_ms_p99", pt.frameP99Ms)
                             .set("verified_sessions", pt.verified)
                             .set("outputs_match", pt.outputsMatch));
    }
    std::printf("\n%s\n", table.str().c_str());
    std::printf("sampled streams byte-identical to solo serial runs: "
                "%s\n",
                all_match ? "yes" : "NO — LIBDN VIOLATION");

    return bench.finish(
        Json::object()
            .set("backend", backend)
            .set("hw_backend", bench.hwBackend)
            .set("transport", bench.transport)
            .set("partition", partition)
            .set("workers", effective_workers)
            .set("hardware_concurrency",
                 std::thread::hardware_concurrency())
            .set("frames_per_session", frames)
            .set("compile_cache",
                 Json::object()
                     .set("compiles", cacheStats.compiles)
                     .set("hits", cacheStats.hits)
                     .set("disk_hits", cacheStats.diskHits)
                     .set("corrupt_fallbacks",
                          cacheStats.corruptFallbacks)
                     .set("hit_ratio",
                          obs::metrics()
                              .gauge("serve.cache.hit_ratio")
                              .value()))
            .set("metrics", Json::raw(obs::metrics().toJson()))
            .set("points", std::move(json_points)),
        all_match);
}
